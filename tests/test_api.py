import sagrs


def test_all_is_sorted_resolves_and_is_what_star_import_binds():
    assert sagrs.__all__ == sorted(set(sagrs.__all__))  # sorted, no name twice
    for name in sagrs.__all__:
        assert hasattr(sagrs, name), name
    namespace = {}
    exec("from sagrs import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sagrs.__all__
