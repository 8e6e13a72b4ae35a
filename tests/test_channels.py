import pickle
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.constants import speed_of_light

import oracles
from bdris import channels as channels_mod, montecarlo, solver
from bdris.channels import (LinkDraw, NetworkChannels, NetworkTopology,
                            generate_channels, generate_link_taps, load_channels,
                            pathloss, save_channels, taps_to_frequency)
from bdris.circuit import ElementCircuit, SubcarrierGrid
from bdris.rates import snapshot
from bdris.scenario import (ScenarioConfig, build_scenario, channels_for_trial,
                            dbm_to_watt, load_config, trial_seed)

from conftest import complex_normal, make_network


def small_topology():
    return NetworkTopology(
        bs_positions=[[0, 0, 5], [60, 0, 5]],
        ue_positions=[[30, 60, 1.5], [32.5, 60, 1.5]],
        ris_positions=[[-2.5, 8.5, 3], [62.5, 8.5, 3]],
        num_antennas=2, num_elements=3, users_per_bs=(1, 1))


class TestTopology:
    def test_helpers(self):
        topo = small_topology()
        assert topo.num_bs == 2 and topo.num_users == 2
        np.testing.assert_array_equal(topo.bs_of_user, [0, 1])

    def test_coincident_nodes_rejected(self):
        with pytest.raises(ValueError):
            NetworkTopology([[0, 0, 5]], [[0, 0, 5]], [[1, 1, 3]],
                            num_antennas=1, num_elements=1, users_per_bs=(1,))

    def test_user_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            NetworkTopology([[0, 0, 5]], [[30, 60, 1.5]], [[1, 1, 3]],
                            num_antennas=1, num_elements=1, users_per_bs=(2,))


class TestPathloss:
    def test_speed_of_light_is_scipys(self):
        assert channels_mod.SPEED_OF_LIGHT == speed_of_light

    def test_reference_distance(self):
        lam = speed_of_light / 3.5e9
        np.testing.assert_allclose(pathloss(1.0, 3.7, lam), (lam / (4 * np.pi)) ** 2)

    def test_inverse_square(self):
        lam = 0.1
        np.testing.assert_allclose(pathloss(2.0, 2.0, lam),
                                   pathloss(1.0, 2.0, lam) / 4.0)

    def test_carrier_value(self):
        # lambda = c / 3.5 GHz ~ 0.08565 m, reference gain ~ 4.646e-5
        lam = speed_of_light / 3.5e9
        np.testing.assert_allclose(lam, 0.085654988, rtol=1e-7)
        np.testing.assert_allclose(pathloss(1.0, 3.7, lam), 4.64606829155e-5,
                                   rtol=1e-9)

    def test_nonpositive_distance_rejected(self):
        with pytest.raises(ValueError):
            pathloss(0.0, 2.0, 0.1)


class TestLinkTaps:
    def test_deterministic_under_seed(self):
        a = generate_link_taps(np.random.default_rng(42), 2, 3, 16, 0.5)
        b = generate_link_taps(np.random.default_rng(42), 2, 3, 16, 0.5)
        np.testing.assert_array_equal(a, b)

    def test_total_power_statistics(self):
        rng = np.random.default_rng(7)
        total = 0.0
        draws = 10000
        taps = generate_link_taps(rng, draws, 1, 16, 2.5)
        total = np.mean(np.sum(np.abs(taps) ** 2, axis=-1))
        assert abs(total - 2.5) <= 0.03 * 2.5

    def test_power_scales_exactly_with_gain(self):
        a = generate_link_taps(np.random.default_rng(3), 2, 2, 8, 1.0)
        b = generate_link_taps(np.random.default_rng(3), 2, 2, 8, 2.0)
        np.testing.assert_allclose(np.abs(b) ** 2, 2.0 * np.abs(a) ** 2)

    def test_single_tap_is_flat(self):
        taps = generate_link_taps(np.random.default_rng(1), 1, 1, 1, 1.0)
        freq = taps_to_frequency(taps, 8)
        np.testing.assert_allclose(freq, np.broadcast_to(freq[0], freq.shape))

    def test_needs_a_tap(self):
        with pytest.raises(ValueError):
            generate_link_taps(np.random.default_rng(0), 1, 1, 0, 1.0)


class TestTapsToFrequency:
    def test_unit_tap_at_zero_delay(self):
        taps = np.zeros((1, 1, 4), dtype=complex)
        taps[0, 0, 0] = 1.0
        freq = taps_to_frequency(taps, 8)
        np.testing.assert_allclose(freq, np.ones((8, 1, 1)))

    def test_parseval(self, rng):
        taps = complex_normal(rng, 3, 2, 16)
        freq = taps_to_frequency(taps, 16)
        lhs = np.sum(np.abs(freq) ** 2)
        rhs = 16 * np.sum(np.abs(taps) ** 2)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-9)

    def test_round_trip(self, rng):
        taps = complex_normal(rng, 2, 2, 6)
        freq = taps_to_frequency(taps, 16)
        back = np.fft.ifft(np.moveaxis(freq, 0, -1), axis=-1)
        np.testing.assert_allclose(back[..., :6], taps, atol=1e-10)
        np.testing.assert_allclose(back[..., 6:], 0, atol=1e-10)

    def test_stack_gives_the_bits_of_one_dft_per_link(self, rng):
        taps = complex_normal(rng, 3, 2, 5, 6)
        freq = taps_to_frequency(taps, 16, axis=1)
        assert freq.shape == (3, 16, 2, 5) and freq.flags.c_contiguous
        np.testing.assert_array_equal(freq, np.stack([taps_to_frequency(t, 16) for t in taps]))

    def test_too_many_taps_rejected(self):
        with pytest.raises(ValueError):
            taps_to_frequency(np.zeros((1, 1, 16)), 8)


def composite(channels, iterate):
    """Composite channel f of every (BS, user, subcarrier), as the solver forms it.

    The noise power does not enter the snapshot's rows.
    """
    return np.conj(snapshot(iterate, channels, 1.0).rows)


class TestCompositeChannel:
    def test_zero_reflection_leaves_direct(self, rng):
        channels, iterate, _ = make_network(rng, num_antennas=4, num_elements=3)
        channels.bs_ris[:] = 0
        np.testing.assert_allclose(composite(channels, iterate), channels.direct)

    def test_identity_selection_is_plain_diagonal_surface(self, rng):
        channels, iterate, _ = make_network(rng, num_antennas=4, num_elements=3)
        iterate.selections[:] = np.arange(3)
        f = composite(channels, iterate)
        phi = [oracles.reflection_profile(c, channels.grid, channels.circuit)
               for c in iterate.capacitances]
        for j, u, k in np.ndindex(f.shape[:3]):
            h, g = channels.direct[j, u, k], channels.ris_ue[j, u, k]
            expected = h + np.conj(np.conj(g) @ np.diag(phi[j][k]) @ channels.bs_ris[j, k])
            np.testing.assert_allclose(f[j, u, k], expected)

    def test_swap_permutation_reroutes_gains(self, rng):
        # with M = 2 and the swap, routing g through S equals permuting g
        channels, iterate, _ = make_network(rng, num_elements=2)
        iterate.selections[:] = [1, 0]
        f = composite(channels, iterate)
        iterate.selections[:] = [0, 1]
        expected = composite(replace(channels, ris_ue=channels.ris_ue[..., ::-1]), iterate)
        np.testing.assert_allclose(f, expected)

    def test_linear_in_direct_channel(self, rng):
        channels, iterate, _ = make_network(rng, num_antennas=4, num_elements=3)
        h1 = complex_normal(rng, *channels.direct.shape)
        h2 = complex_normal(rng, *channels.direct.shape)

        def f(direct):
            return composite(replace(channels, direct=direct), iterate)
        np.testing.assert_allclose(f(h1 + h2), f(h1) + f(h2) - f(np.zeros_like(h1)))


class TestNetworkChannels:
    @pytest.mark.parametrize("bs_of_user", [[0, 5], [0, 0], [-1, 1]])
    def test_rejects_bad_serving_bs(self, rng, bs_of_user):
        # Q = 2: a user served by no BS, and a BS that serves no user
        channels, _, _ = make_network(rng)
        with pytest.raises(ValueError):
            replace(channels, bs_of_user=np.array(bs_of_user))


class TestGenerateChannels:
    def test_shapes_and_determinism(self):
        topo = small_topology()
        grid = SubcarrierGrid(3.5e9, 0.1e9, 16)
        a = generate_channels(topo, grid, (3.7, 2.2, 2.6), root_seed=11, num_taps=16,
                              circuit=ElementCircuit())
        b = generate_channels(topo, grid, (3.7, 2.2, 2.6), root_seed=11, num_taps=16,
                              circuit=ElementCircuit())
        assert a.direct.shape == (2, 2, 16, 2)
        assert a.bs_ris.shape == (2, 16, 3, 2)
        assert a.ris_ue.shape == (2, 2, 16, 3)
        np.testing.assert_array_equal(a.direct, b.direct)
        np.testing.assert_array_equal(a.bs_ris, b.bs_ris)
        np.testing.assert_array_equal(a.ris_ue, b.ris_ue)

    def test_adding_users_preserves_existing_links(self):
        grid = SubcarrierGrid(3.5e9, 0.1e9, 16)
        topo2 = small_topology()
        topo3 = NetworkTopology(
            topo2.bs_positions, np.vstack([topo2.ue_positions, [[31, 61, 1.5]]]),
            topo2.ris_positions, 2, 3, (1, 2))
        a = generate_channels(topo2, grid, (3.7, 2.2, 2.6), root_seed=5, num_taps=16,
                              circuit=ElementCircuit())
        b = generate_channels(topo3, grid, (3.7, 2.2, 2.6), root_seed=5, num_taps=16,
                              circuit=ElementCircuit())
        np.testing.assert_array_equal(a.direct, b.direct[:, :2])
        np.testing.assert_array_equal(a.ris_ue, b.ris_ue[:, :2])
        np.testing.assert_array_equal(a.bs_ris, b.bs_ris)

    def test_mean_power_tracks_pathloss(self):
        topo = small_topology()
        grid = SubcarrierGrid(3.5e9, 0.1e9, 64)
        ch = generate_channels(topo, grid, (3.7, 2.2, 2.6), root_seed=2, num_taps=16,
                               circuit=ElementCircuit())
        lam = speed_of_light / 3.5e9
        d = np.linalg.norm(topo.bs_positions[0] - topo.ue_positions[0])
        expected = pathloss(d, 3.7, lam)
        measured = np.mean(np.abs(ch.direct[0, 0]) ** 2)
        assert 0.5 * expected < measured < 2.0 * expected


class TestLazySurfaceLinks:
    """Generated channels draw both surface families on the first read of either."""

    TWO_USERS = Path(__file__).parent / "data" / "two_users_per_bs.ini"

    @staticmethod
    def undrawn(channels):
        return {"bs_ris", "ris_ue"}.isdisjoint(vars(channels))

    @staticmethod
    def tiny_config(variants=("none", "none-pi0")):
        cfg = ScenarioConfig(num_elements=4, num_subcarriers=8, num_taps=4, trials=2,
                             power_dbm=(20.0, 30.0), variants=variants)
        return replace(cfg, solver=replace(cfg.solver, max_iters=5))

    @pytest.mark.parametrize("config, trial", [
        *((ScenarioConfig(seed=seed), trial) for seed in (1, 5) for trial in (0, 1)),
        (load_config(TWO_USERS), 0)],
        ids=["seed1-trial0", "seed1-trial1", "seed5-trial0", "seed5-trial1", "two-users"])
    def test_equal_an_eager_draw(self, config, trial):
        topology = build_scenario(config)
        channels = channels_for_trial(config, trial, topology)
        assert self.undrawn(channels)
        eager = oracles.per_link_channels(topology, config.grid(), config.exponents(),
                                          trial_seed(config.seed, trial), config.num_taps)
        for name, want in zip(("direct", "bs_ris", "ris_ue"), eager):
            np.testing.assert_array_equal(getattr(channels, name), want, err_msg=name,
                                          strict=True)

    def test_either_read_draws_both_once(self):
        channels = channels_for_trial(self.tiny_config(), 0)
        assert channels.num_elements == 4 and self.undrawn(channels)
        ris_ue = channels.ris_ue
        assert {"bs_ris", "ris_ue"} <= vars(channels).keys()
        assert channels.ris_ue is ris_ue
        assert channels.bs_ris is channels.bs_ris

    @pytest.mark.parametrize("variant", ["none", "none-pi0"])
    def test_surface_less_solve_leaves_them_undrawn(self, variant):
        config = self.tiny_config()
        channels = channels_for_trial(config, 0)
        solver.run(channels, dbm_to_watt(30.0), config.noise_power,
                   solver.solver_config_for(config.solver, variant))
        assert self.undrawn(channels)

    def test_surface_less_sweep_leaves_them_undrawn(self, monkeypatch):
        seen, inner = [], montecarlo.run_solver

        def recording(channels, *args):
            seen.append(channels)
            return inner(channels, *args)
        monkeypatch.setattr(montecarlo, "run_solver", recording)
        montecarlo.run_sweep(self.tiny_config())
        assert len(seen) == 2 * 2 * 2
        assert all(self.undrawn(c) for c in seen)

    def test_bd_solve_draws_them(self):
        config = self.tiny_config()
        channels = channels_for_trial(config, 0)
        solver.run(channels, dbm_to_watt(30.0), config.noise_power,
                   solver.solver_config_for(config.solver, "bd"))
        assert not self.undrawn(channels)

    def test_pickle_round_trip(self):
        channels = channels_for_trial(self.tiny_config(), 1)
        back = pickle.loads(pickle.dumps(channels))
        assert self.undrawn(back) and back.num_elements == 4
        for name in ("direct", "bs_ris", "ris_ue", "bs_of_user"):
            np.testing.assert_array_equal(getattr(back, name), getattr(channels, name))
        assert back.grid == channels.grid and back.circuit == channels.circuit

    def test_replace_keeps_the_original_links(self):
        config = self.tiny_config()
        channels = channels_for_trial(config, 0)
        copy = replace(channels, grid=replace(channels.grid, bandwidth=0.0))
        fresh = channels_for_trial(config, 0)
        for name in ("bs_ris", "ris_ue"):
            assert getattr(copy, name) is getattr(channels, name)
            np.testing.assert_array_equal(getattr(copy, name), getattr(fresh, name))

    def test_dump_round_trip(self, tmp_path):
        channels = channels_for_trial(self.tiny_config(), 0)
        save_channels(channels, tmp_path / "channels.csv")
        back = load_channels(tmp_path / "channels.csv")
        for name in ("direct", "bs_ris", "ris_ue", "bs_of_user"):
            np.testing.assert_array_equal(getattr(back, name), getattr(channels, name))

    def test_surface_links_must_come_from_the_direct_links_draw(self):
        config = self.tiny_config()
        channels = channels_for_trial(config, 0)
        draw = LinkDraw(build_scenario(config), config.grid(), config.exponents(), 0,
                        config.num_taps)
        with pytest.raises(ValueError, match="direct links' draw"):
            NetworkChannels(channels.direct, draw, channels.ris_ue, channels.bs_of_user,
                            channels.grid)
        with pytest.raises(ValueError, match="direct links' draw"):
            NetworkChannels(channels.direct[:, :1], draw, draw, channels.bs_of_user[:1],
                            channels.grid)


class TestDumpLoad:
    def test_round_trip(self, rng, tmp_path):
        channels, _, _ = make_network(rng, num_bs=2, num_antennas=2,
                                      num_elements=3, num_subcarriers=4)
        path = tmp_path / "channels.csv"
        save_channels(channels, path)
        back = load_channels(path)
        np.testing.assert_array_equal(back.direct, channels.direct)
        np.testing.assert_array_equal(back.bs_ris, channels.bs_ris)
        np.testing.assert_array_equal(back.ris_ue, channels.ris_ue)
        np.testing.assert_array_equal(back.bs_of_user, channels.bs_of_user)
        assert back.grid == channels.grid
        assert back.circuit == channels.circuit

    def test_rejects_other_files(self, tmp_path):
        path = tmp_path / "bogus.csv"
        path.write_text("hello,world\n")
        with pytest.raises(ValueError):
            load_channels(path)

    def test_rejects_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="'dims'"):
            load_channels(path)

    @pytest.fixture
    def dump_lines(self, rng, tmp_path):
        channels, _, _ = make_network(rng, num_bs=2, num_antennas=2,
                                      num_elements=3, num_subcarriers=4)
        path = tmp_path / "channels.csv"
        save_channels(channels, path)
        return path, path.read_text().splitlines()

    def test_rejects_wrong_header_tag(self, dump_lines):
        path, lines = dump_lines
        assert lines[1].startswith("grid,")
        lines[1] = "grids," + lines[1][len("grid,"):]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="'grid'"):
            load_channels(path)

    def test_rejects_repeated_row(self, dump_lines):
        path, lines = dump_lines
        path.write_text("\n".join(lines + [lines[-1]]) + "\n")
        with pytest.raises(ValueError, match="repeated ris_ue row"):
            load_channels(path)

    def test_rejects_missing_rows(self, dump_lines):
        path, lines = dump_lines
        path.write_text("\n".join(lines[:-5]) + "\n")
        with pytest.raises(ValueError, match="5 ris_ue rows are missing"):
            load_channels(path)

    @pytest.mark.parametrize("prefix, column, named", [
        ("direct,1,0,2,", 5, "direct row 1,0,2"),  # imaginary part of the first entry
        ("circuit,", 1, "resistance"),
    ])
    def test_rejects_non_finite_value(self, dump_lines, prefix, column, named):
        path, lines = dump_lines
        i = next(i for i, line in enumerate(lines) if line.startswith(prefix))
        cells = lines[i].split(",")
        cells[column] = "nan"
        lines[i] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=named):
            load_channels(path)

    def test_rejects_row_outside_the_dimensions(self, dump_lines):
        path, lines = dump_lines
        link, j, u, k, *cells = lines[-1].split(",")
        assert link == "ris_ue"
        path.write_text("\n".join(lines + [",".join([link, j, u, "-1", *cells])]) + "\n")
        with pytest.raises(ValueError, match="outside the dimensions"):
            load_channels(path)
