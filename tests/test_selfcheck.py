from bdris.selfcheck import run_all


def test_all_checks_pass():
    results = run_all()
    assert len(results) == 10
    failed = [(name, detail) for name, ok, detail in results if not ok]
    assert failed == []
