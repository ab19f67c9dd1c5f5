import inspect

import pytest

import subent
from subent.io import parse_subspace_document


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


# The value types that hold arrays compare and hash by identity: their
# generated field-wise __eq__ compared arrays and raised, and they could not
# be hashed.
ARRAY_HOLDERS = {
    "Projector": lambda: subent.projector_from_basis(subent.antisymmetric_subspace(3)),
    "SchmidtString": lambda: subent.antisym_string_closed(3),
    "SubspaceBasis": lambda: subent.antisymmetric_subspace(3),
    "HydrogenEntry": lambda: subent.hydrogen_level(2).entries[0],
    "HydrogenLevel": lambda: subent.hydrogen_level(2),
    "SubspaceDocument": lambda: parse_subspace_document(
        {"d1": 1, "d2": 2, "basis": [[[1.0, 0.0], [0.0, 0.0]]]}
    ),
}


@pytest.mark.parametrize("kind", ARRAY_HOLDERS)
def test_array_holders_compare_by_identity(kind):
    a, b = ARRAY_HOLDERS[kind](), ARRAY_HOLDERS[kind]()
    assert type(a).__name__ == kind
    assert a == a and a != b
    assert a in [b, a] and a not in [b]
    assert len({a, b, a}) == 2
