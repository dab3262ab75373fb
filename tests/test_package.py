"""The package's public surface."""

import curstat
from curstat import bandwidth, errors, estimators, kernels, mle, sim, smoothing

MODULES = (errors, kernels, mle, smoothing, estimators, bandwidth, sim)


def test_package_all_is_the_modules_lists():
    assert curstat.__all__ == ["__version__"] + [n for mod in MODULES for n in mod.__all__]
    assert len(set(curstat.__all__)) == len(curstat.__all__)
    assert isinstance(curstat.__version__, str)
    for mod in MODULES:
        for name in mod.__all__:
            assert getattr(curstat, name) is getattr(mod, name), f"{mod.__name__}.{name}"
