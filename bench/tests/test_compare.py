"""The verdict rules of ``python -m bench compare``."""

from bench.compare import verdict

BASE = [10.0, 10.1, 9.9, 10.05, 9.95, 10.02, 9.98, 10.01, 9.99, 10.03]


def test_same_regressed_improved():
    assert verdict(BASE, BASE, "lower", 0.1) == "same"
    assert verdict(BASE, [x * 1.2 for x in BASE], "lower", 0.1) == "regressed"
    assert verdict(BASE, [x * 0.8 for x in BASE], "lower", 0.1) == "improved"
    assert verdict(BASE, [x * 1.2 for x in BASE], "higher", 0.1) == "improved"
    assert verdict(BASE, [x * 0.8 for x in BASE], "higher", 0.1) == "regressed"


def test_spread_wider_than_bound_is_unresolved_unless_every_run_wins():
    noisy = [8.0, 10.0, 12.0, 14.0, 16.0]
    assert verdict(noisy, noisy, "lower", 0.1) == "unresolved"
    assert verdict(noisy, [x * 1.5 for x in noisy], "lower", 0.1) == "unresolved"
    assert verdict(noisy, [x / 4 for x in noisy], "lower", 0.1) == "improved"
