import pytest

import wdistill
from wdistill import cavity, errors, statevec

REMOVED = ("AtomicWPrimeSpec", "ramsey_phase", "sample_site", "TruncationError")


def test_every_exported_name_resolves():
    assert len(set(wdistill.__all__)) == len(wdistill.__all__)
    for name in wdistill.__all__:
        assert getattr(wdistill, name, None) is not None, name


@pytest.mark.parametrize("name", REMOVED)
def test_removed_name_is_gone(name):
    assert name not in wdistill.__all__
    for module in (wdistill, cavity, errors, statevec):
        assert not hasattr(module, name), f"{module.__name__}.{name}"
