import wasmsmell


def test_package_root_exports_three_names():
    assert wasmsmell.__all__ == ["analyze_source", "canonical_json", "is_relevant"]
    for name in wasmsmell.__all__:
        assert callable(getattr(wasmsmell, name))
