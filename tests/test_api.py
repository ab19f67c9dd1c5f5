import inspect

import subent


def test_all_names_the_public_attributes():
    public = {
        name
        for name, value in vars(subent).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert len(subent.__all__) == len(set(subent.__all__))
    assert set(subent.__all__) - {"__version__"} == public
    for name in subent.__all__:
        assert getattr(subent, name) is not None
