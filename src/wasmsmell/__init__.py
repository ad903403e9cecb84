"""Static detection of WebAssembly compilation smells in C/C++ projects.

The package covers four concerns: a tolerant C frontend feeding a
path-sensitive smell analysis, repository classification for
WebAssembly targeting, README relevance ranking, and curation of
deduplicated .wasm binary collections.

The package root exports the three entry points below; everything else
is imported from its submodule (``wasmsmell.cfg``, ``wasmsmell.engine``, ...).
"""

from .analysis import analyze_source
from .relevance import is_relevant
from .report import canonical_json

__version__ = "0.1.0"

__all__ = ["analyze_source", "canonical_json", "is_relevant"]
