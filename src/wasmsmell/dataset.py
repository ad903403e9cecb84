"""Collect and deduplicate WebAssembly binaries from project trees.

Stored files are content-addressed: `<sha256>.wasm`. An `index.json`
in the dataset directory maps each hash to every origin that produced
it, and always holds `canonical_json(index.to_dict())`. Text-format
modules can be converted through an external tool, and project builds
can be driven through configurable wrapper commands.

Writers of one dataset are serialized by an `flock` on its directory,
which the kernel releases however the holder exits. Each process caches
the index it last read or wrote, with every entry's rendered text, and
trusts that cache only while the SHA-256 of `index.json` still matches
it, so a file rewritten by anyone else is parsed again. Adding a repo
then re-renders only the entries whose origins changed; the on-disk
format is the same as a full `canonical_json` render.
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import os
import shlex
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from .report import SCHEMA_VERSION, canonical_json

DEFAULT_WAT2WASM = "wat2wasm --enable-all {in} -o {out}"
DEFAULT_CMAKE_WRAPPER = "emcmake cmake ."
DEFAULT_MAKE_WRAPPER = "emmake make"
DEFAULT_BUILD_TIMEOUT = 600.0
OUTPUT_TRUNCATE = 4096

INDEX_NAME = "index.json"


class IntegrityError(RuntimeError):
    """A stored file's bytes no longer match its hash name."""


@dataclass
class BinaryIndex:
    # hash -> sorted list of {"repo": ..., "path": ...}
    entries: dict[str, list[dict]] = field(default_factory=dict)
    wat_converted: int = 0
    wat_unconverted: list[dict] = field(default_factory=list)  # {"path", "stderr"}
    # hashes whose origins add_origin changed since the last render
    _dirty: set[str] = field(default_factory=set, init=False, repr=False, compare=False)

    def add_origin(self, digest: str, repo: str, path: str) -> bool:
        """Record one origin of a stored blob; True if it was not known yet."""
        origins = self.entries.setdefault(digest, [])
        origin = {"repo": repo, "path": path}
        if origin in origins:
            return False
        origins.append(origin)
        origins.sort(key=lambda o: (o["repo"], o["path"]))
        self._dirty.add(digest)
        return True

    def record_wat(self, converted: set[str], unconverted: list[dict]):
        """Keep each .wat path's latest failure; drop the paths that converted."""
        by_path = {u["path"]: u for u in self.wat_unconverted + unconverted}
        self.wat_unconverted = [u for path, u in by_path.items() if path not in converted]

    def copy(self) -> "BinaryIndex":
        """A copy whose lists the caller may change; origin dicts are shared."""
        return BinaryIndex(
            {h: list(origins) for h, origins in self.entries.items()},
            self.wat_converted,
            list(self.wat_unconverted),
        )

    def _without_entries(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "entries": [],
            "wat": {
                "converted": self.wat_converted,
                "unconverted": sorted(self.wat_unconverted, key=lambda u: u["path"]),
            },
        }

    def to_dict(self) -> dict:
        doc = self._without_entries()
        doc["entries"] = [
            {"hash": h, "origins": self.entries[h]} for h in sorted(self.entries)
        ]
        return doc

    def render(self, pieces: dict[str, bytes]) -> bytes:
        """`canonical_json(self.to_dict())`, reusing unchanged entries' text.

        `pieces` maps a hash to its entry's text from an earlier render of
        this index. Entries with no piece, or changed by add_origin since,
        are rendered again and stored back into `pieces`.
        """
        for digest in self._dirty:
            pieces.pop(digest, None)
        self._dirty.clear()
        shell = canonical_json(self._without_entries())
        if not self.entries:
            return shell
        missing = sorted(self.entries.keys() - pieces.keys())
        if missing:
            # One canonical_json call renders them all as a top-level list;
            # shifted one level deeper (indent=2) they are the index's list
            # items, and ",\n" before a line of exactly "    {" only ever
            # separates two items.
            text = canonical_json([{"hash": h, "origins": self.entries[h]} for h in missing])
            first, *rest = (b"  " + text[2:-3].replace(b"\n", b"\n  ")).split(b",\n    {\n")
            rendered = [first] + [b"    {\n" + piece for piece in rest]
            pieces.update(zip(missing, rendered, strict=True))
        body = b",\n".join(map(pieces.__getitem__, sorted(self.entries)))
        head, tail = shell.split(b'"entries": []', 1)
        return b"".join((head, b'"entries": [\n', body, b"\n  ]", tail))

    @classmethod
    def from_dict(cls, d: dict) -> "BinaryIndex":
        idx = cls()
        for entry in d.get("entries", []):
            idx.entries[entry["hash"]] = list(entry["origins"])
        wat = d.get("wat", {})
        idx.wat_converted = wat.get("converted", 0)
        idx.wat_unconverted = list(wat.get("unconverted", []))
        return idx


@dataclass
class _CachedIndex:
    digest: bytes | None  # SHA-256 of index.json's bytes; None while it is absent
    index: BinaryIndex  # never handed out: callers get copies
    pieces: dict[str, bytes]  # BinaryIndex.render's per-entry text


# At most one dataset's index per process, keyed by index.json's path.
_CACHE: dict[Path, _CachedIndex] = {}


def _index_path(dest) -> Path:
    return (Path(dest) / INDEX_NAME).absolute()


def _read_index(path: Path) -> _CachedIndex:
    """The index in `path`, from the cache while the file's digest matches."""
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        data = None
    digest = None if data is None else hashlib.sha256(data).digest()
    cached = _CACHE.get(path)
    if cached is None or cached.digest != digest:
        index = BinaryIndex() if data is None else BinaryIndex.from_dict(json.loads(data))
        cached = _CachedIndex(digest, index, {})
        _CACHE.clear()
        _CACHE[path] = cached
    return cached


def _write_index(path: Path, data: bytes):
    tmp = path.with_suffix(".json.tmp")
    tmp.write_bytes(data)
    os.replace(tmp, path)


def load_index(dest: Path) -> BinaryIndex:
    if not _index_path(dest).exists():
        return BinaryIndex()
    with _DatasetLock(dest):
        return _read_index(_index_path(dest)).index.copy()


def save_index(dest: Path, index: BinaryIndex):
    with _DatasetLock(dest):
        _write_index(_index_path(dest), index.render({}))


class _DatasetLock:
    """Exclusive flock on the dataset directory; writers are serialized per dest.

    The kernel drops the lock when its holder exits, however it exits, so
    a crashed collector leaves nothing behind for the next run to wait on.
    """

    def __init__(self, dest: Path, timeout: float = 30.0):
        self.dest = Path(dest)
        self.timeout = timeout
        self.fd = -1

    def __enter__(self):
        self.fd = os.open(self.dest, os.O_RDONLY | os.O_DIRECTORY)
        deadline = time.monotonic() + self.timeout
        try:
            while True:
                try:
                    fcntl.flock(self.fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                    return self
                except BlockingIOError:
                    if time.monotonic() >= deadline:
                        raise TimeoutError(f"dataset lock busy: {self.dest}") from None
                    time.sleep(0.05)
        except BaseException:
            os.close(self.fd)
            raise

    def __exit__(self, *exc):
        os.close(self.fd)  # the only descriptor of its open file: the lock goes with it


def scan_binaries(root) -> list[tuple[Path, str]]:
    """All .wasm/.wat files under root (case-insensitive), sorted by path."""
    root = Path(root)
    out = []
    for path in sorted(root.rglob("*")):
        try:
            if not path.is_file():
                continue
        except OSError as err:
            print(f"warning: cannot stat {path}: {err}", file=sys.stderr)
            continue
        suffix = path.suffix.lower()
        if suffix == ".wasm":
            out.append((path, "wasm"))
        elif suffix == ".wat":
            out.append((path, "wat"))
    return out


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def store_dedup(files, dest, repo_id: str, root=None, wat: WatConversion | None = None) -> BinaryIndex:
    """Copy .wasm files into dest under their content hash; idempotent.

    Origin paths are relative to `root` when it is given. `wat`, the
    outcome of convert_wat for this repo, is stored under the same lock:
    each produced module under the path of its .wat, counted as converted
    only when that origin is new. Returns a copy of the updated index.
    """
    return store_dedup_rendered(files, dest, repo_id, root, wat)[0]


def store_dedup_rendered(
    files, dest, repo_id: str, root=None, wat: WatConversion | None = None
) -> tuple[BinaryIndex, bytes]:
    """store_dedup, also returning the bytes it wrote to index.json."""
    dest = Path(dest)
    dest.mkdir(parents=True, exist_ok=True)
    path = _index_path(dest)

    def origin(file) -> str:
        file = Path(file)
        return file.relative_to(root).as_posix() if root is not None else file.as_posix()

    with _DatasetLock(dest):
        cached = _read_index(path)
        index = cached.index
        try:
            for file in files:
                index.add_origin(_store_blob(dest, Path(file)), repo_id, origin(file))
            if wat is not None:
                for source, output in wat.converted:
                    if index.add_origin(_store_blob(dest, output), repo_id, origin(source)):
                        index.wat_converted += 1
                index.record_wat(
                    {origin(source) for source, _ in wat.converted},
                    [dict(u, path=origin(u["path"])) for u in wat.unconverted],
                )
            data = index.render(cached.pieces)
            _write_index(path, data)
        except BaseException:
            # The cached index may hold changes that never reached the file.
            _CACHE.pop(path, None)
            raise
        cached.digest = hashlib.sha256(data).digest()
        return index.copy(), data


def _store_blob(dest: Path, file: Path) -> str:
    """Copy file into dest as <sha256>.wasm unless present; returns the hash."""
    digest = sha256_file(file)
    target = dest / f"{digest}.wasm"
    if target.exists():
        if sha256_file(target) != digest:
            raise IntegrityError(f"{target} exists but its content does not hash to {digest}")
    else:
        tmp = dest / f".{digest}.tmp"
        shutil.copyfile(file, tmp)
        os.replace(tmp, target)
    return digest


@dataclass
class WatConversion:
    converted: list[tuple[Path, Path]] = field(default_factory=list)  # (.wat, produced .wasm)
    unconverted: list[dict] = field(default_factory=list)  # {"path", "stderr"}
    skipped: list[Path] = field(default_factory=list)  # converter unavailable


def convert_wat(files, work_dir, converter: str | None = DEFAULT_WAT2WASM) -> WatConversion:
    """Run each .wat through the converter template; failures are data."""
    result = WatConversion()
    if converter:
        tool = shlex.split(converter.replace("{in}", "IN").replace("{out}", "OUT"))[0]
        if shutil.which(tool) is None:
            converter = None
    if not converter:
        result.skipped = [Path(f) for f in files]
        return result
    work_dir = Path(work_dir)
    work_dir.mkdir(parents=True, exist_ok=True)
    for i, path in enumerate(files):
        path = Path(path)
        out_path = work_dir / f"wat-{i}-{path.stem}.wasm"
        cmd = [
            part.replace("{in}", str(path)).replace("{out}", str(out_path))
            for part in shlex.split(converter)
        ]
        try:
            proc = subprocess.run(cmd, capture_output=True, timeout=120)
        except (OSError, subprocess.TimeoutExpired) as err:
            result.unconverted.append({"path": path.as_posix(), "stderr": str(err)})
            continue
        if proc.returncode == 0 and out_path.exists():
            result.converted.append((path, out_path))
        else:
            stderr = proc.stderr.decode("utf-8", errors="replace")[:OUTPUT_TRUNCATE]
            result.unconverted.append({"path": path.as_posix(), "stderr": stderr})
    return result


@dataclass
class BuildStep:
    command: str
    status: str  # ok | failed | timeout | toolchain-unavailable
    exit_code: int | None
    duration: float
    output: str

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "status": self.status,
            "exit_code": self.exit_code,
            "duration": round(self.duration, 3),
            "output": self.output,
        }


@dataclass
class BuildLog:
    directories: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {"schema_version": SCHEMA_VERSION, "directories": self.directories}


def _run_step(command: str, cwd: Path, timeout: float) -> BuildStep:
    argv = shlex.split(command)
    if not argv or shutil.which(argv[0]) is None:
        return BuildStep(command, "toolchain-unavailable", None, 0.0, "")
    started = time.monotonic()
    try:
        proc = subprocess.run(argv, cwd=cwd, capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return BuildStep(command, "timeout", None, time.monotonic() - started, "")
    except OSError as err:
        return BuildStep(command, "failed", None, time.monotonic() - started, str(err))
    output = (proc.stdout + proc.stderr).decode("utf-8", errors="replace")
    return BuildStep(
        command,
        "ok" if proc.returncode == 0 else "failed",
        proc.returncode,
        time.monotonic() - started,
        output[:OUTPUT_TRUNCATE],
    )


def orchestrate_build(
    repo_root,
    cmake_wrapper: str = DEFAULT_CMAKE_WRAPPER,
    make_wrapper: str = DEFAULT_MAKE_WRAPPER,
    timeout: float = DEFAULT_BUILD_TIMEOUT,
) -> BuildLog:
    """Run wrapper builds for every CMake/Make directory under repo_root."""
    repo_root = Path(repo_root)
    log = BuildLog()
    cmake_dirs = sorted({p.parent for p in repo_root.rglob("CMakeLists.txt")})
    make_dirs = sorted(
        {p.parent for p in repo_root.rglob("*") if p.is_file() and p.name == "Makefile"}
    )
    seen = set()
    for d in cmake_dirs:
        steps = [_run_step(cmake_wrapper, d, timeout)]
        if (d / "Makefile").exists():
            steps.append(_run_step(make_wrapper, d, timeout))
        seen.add(d)
        log.directories.append(
            {
                "dir": d.relative_to(repo_root).as_posix() or ".",
                "steps": [s.to_dict() for s in steps],
            }
        )
    for d in make_dirs:
        if d in seen:
            continue
        steps = [_run_step(make_wrapper, d, timeout)]
        log.directories.append(
            {
                "dir": d.relative_to(repo_root).as_posix() or ".",
                "steps": [s.to_dict() for s in steps],
            }
        )
    if not log.directories:
        log.directories.append({"dir": ".", "status": "no-build-system", "steps": []})
    return log
