"""Repo-level pytest configuration.

``--fuzz-seeds N`` scales the differential fuzz test
(``tests/fuzz/test_differential_fuzz.py``) from the fast tier-1 smoke
(default 10 seeds) to a deep local run without code edits, e.g.::

    PYTHONPATH=src python -m pytest tests/fuzz -q --fuzz-seeds 200
"""


def pytest_addoption(parser):
    parser.addoption(
        "--fuzz-seeds",
        action="store",
        type=int,
        default=10,
        metavar="N",
        help="seeds for the differential fuzz smoke test (default: 10)",
    )
