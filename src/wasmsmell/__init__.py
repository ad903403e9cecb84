"""Static detection of WebAssembly compilation smells in C/C++ projects.

The package covers four concerns: a tolerant C frontend feeding a
path-sensitive smell analysis, repository classification for
WebAssembly targeting, README relevance ranking, and curation of
deduplicated .wasm binary collections.

The package root exports the three entry points below; everything else
is imported from its submodule (``wasmsmell.cfg``, ``wasmsmell.engine``, ...).
``import wasmsmell`` loads no submodule: each root export imports its
module on first use and is then kept in the package namespace, so
``collect`` or ``rank-readme`` never compiles the C analyzer.
"""

from importlib import import_module

__version__ = "0.1.0"

__all__ = ["analyze_source", "canonical_json", "is_relevant"]

_EXPORTS = {
    "analyze_source": ".analysis",
    "canonical_json": ".report",
    "is_relevant": ".relevance",
}


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(_EXPORTS[name], __name__), name)
    globals()[name] = value
    return value
