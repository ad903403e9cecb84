"""Collect and deduplicate WebAssembly binaries from project trees.

Stored files are content-addressed: `<sha256>.wasm`. An `index.json`
in the dataset directory maps each hash to every origin that produced
it, and always holds `canonical_json(index.to_dict())`. Text-format
modules can be converted through an external tool, and project builds
can be driven through configurable wrapper commands.

Each entry's origins are an immutable tuple, replaced whole when an
origin is added. So the index a store or load hands out is a shallow
copy: a new dict and list around the cache's own tuples and origin
dicts, with no work per entry.

Writers of one dataset are serialized by an `flock` on its directory,
which the kernel releases however the holder exits. Each process caches
the index it last read or wrote as three things beside the parsed index:
the file's bytes, the hashes in file order, and each entry's length in
bytes. It trusts that cache only while `index.json` still holds exactly
those bytes, so a file rewritten by anyone else is parsed again. Adding
a repo renders only the entries whose origins changed, and writes each
over its old text, or inserts it at its place, in the cached bytes; a
store that changes nothing writes nothing.
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import os
import shlex
import shutil
import subprocess
import time
from array import array
from bisect import bisect_left
from dataclasses import dataclass, field
from pathlib import Path

from .report import SCHEMA_VERSION, canonical_json, report_path, tree_files

DEFAULT_WAT2WASM = "wat2wasm --enable-all {in} -o {out}"
DEFAULT_CMAKE_WRAPPER = "emcmake cmake ."
DEFAULT_MAKE_WRAPPER = "emmake make"
DEFAULT_BUILD_TIMEOUT = 600.0
OUTPUT_TRUNCATE = 4096

INDEX_NAME = "index.json"


class IntegrityError(RuntimeError):
    """A stored file's bytes no longer match its hash name, or index.json
    is not an index this module could have written."""


@dataclass
class BinaryIndex:
    """The dataset's index. `entries` maps each hash to a tuple of its
    origins, each {"repo": ..., "path": ...}, sorted by repo then path;
    `to_dict` writes them as lists, as index.json holds them."""

    entries: dict[str, tuple[dict, ...]] = field(default_factory=dict)
    wat_converted: int = 0
    wat_unconverted: list[dict] = field(default_factory=list)  # {"path", "stderr"}

    def add_origin(self, digest: str, repo: str, path: str) -> bool:
        """Record one origin of a stored blob; True if it was not known yet."""
        origins = self.entries.get(digest, ())
        origin = {"repo": repo, "path": path}
        if origin in origins:
            return False
        self.entries[digest] = tuple(sorted((*origins, origin), key=lambda o: (o["repo"], o["path"])))
        return True

    def record_wat(self, converted: set[str], unconverted: list[dict]):
        """Keep each .wat path's latest failure; drop the paths that converted."""
        by_path = {u["path"]: u for u in self.wat_unconverted + unconverted}
        self.wat_unconverted = [u for path, u in by_path.items() if path not in converted]

    def copy(self) -> "BinaryIndex":
        """A shallow copy whose dict and list the caller may change; the
        origin tuples and the dicts in them are shared."""
        return BinaryIndex(dict(self.entries), self.wat_converted, list(self.wat_unconverted))

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
            {"hash": h, "origins": list(self.entries[h])} for h in sorted(self.entries)
        ]
        return doc

    @classmethod
    def from_dict(cls, d) -> "BinaryIndex":
        """The index of a parsed index.json; IntegrityError unless every
        entry is {"hash": str, "origins": [{"path": str, "repo": str}, ...]}."""
        if not isinstance(d, dict):
            raise IntegrityError("the index is not a JSON object")
        entries = d.get("entries", [])
        if not isinstance(entries, list):
            raise IntegrityError('"entries" is not a list')
        idx = cls()
        for entry in entries:
            if not _is_entry(entry):
                raise IntegrityError(f"malformed entry {entry!r:.80}")
            idx.entries[entry["hash"]] = tuple(entry["origins"])
        wat = d.get("wat", {})
        converted = wat.get("converted", 0) if isinstance(wat, dict) else None
        unconverted = wat.get("unconverted", []) if isinstance(wat, dict) else None
        if type(converted) is not int or not (
            isinstance(unconverted, list)
            and all(isinstance(u, dict) and isinstance(u.get("path"), str) for u in unconverted)
        ):
            raise IntegrityError(f'malformed "wat" section {wat!r:.80}')
        idx.wat_converted = converted
        idx.wat_unconverted = list(unconverted)
        return idx


def _is_entry(entry) -> bool:
    if type(entry) is not dict or len(entry) != 2 or type(entry.get("hash")) is not str:
        return False
    origins = entry.get("origins")
    if type(origins) is not list:
        return False
    for o in origins:
        if type(o) is not dict or len(o) != 2:
            return False
        if type(o.get("path")) is not str or type(o.get("repo")) is not str:
            return False
    return True


# How canonical_json lays out index.json: with any entries, the file starts
# with _HEAD, and its entries' texts follow in hash order, _SEP between two.
_HEAD = b'{\n  "entries": [\n'
_SEP = b",\n"
_quote = json.encoder.encode_basestring  # json.dumps' quoting with ensure_ascii=False
_ENTRY = '    {\n      "hash": %s,\n      "origins": [\n%s\n      ]\n    }'
_NO_ORIGINS = '    {\n      "hash": %s,\n      "origins": []\n    }'
_ORIGIN = '        {\n          "path": %s,\n          "repo": %s\n        }'


def _entry_text(digest: str, origins: tuple[dict, ...]) -> bytes:
    """One entry's text in index.json, as canonical_json renders it there."""
    if not origins:
        return (_NO_ORIGINS % _quote(digest)).encode()
    body = ",\n".join([_ORIGIN % (_quote(o["path"]), _quote(o["repo"])) for o in origins])
    return (_ENTRY % (_quote(digest), body)).encode()


@dataclass
class _CachedIndex:
    index: BinaryIndex  # never handed out: callers get shallow copies
    # index.json's bytes as last read or written (None while it is absent);
    # after the first render, a bytearray that each render edits in place.
    data: bytes | bytearray | None = None
    # The hashes whose entry text `data` holds, in file order, and each
    # text's length in bytes. Empty until the first render.
    order: list[str] = field(default_factory=list)
    lengths: array = field(default_factory=lambda: array("L"))

    def render(self, dirty) -> bytearray:
        """Make `data` `canonical_json(self.index.to_dict())` and return it.

        While the layout is empty every entry is rendered. Otherwise only
        the entries of the hashes in `dirty` are, and each is written over
        its old text or inserted at its place in `data`.
        """
        index, order, lengths = self.index, self.order, self.lengths
        shell = canonical_json(index._without_entries())
        tail = b"\n  ]" + shell.split(b'"entries": []', 1)[1]
        if not order:
            order = sorted(index.entries)
            texts = [_entry_text(h, index.entries[h]) for h in order]
            chunks = [_SEP] * (2 * len(texts) + 1)
            chunks[1::2] = texts
            chunks[0], chunks[-1] = _HEAD, tail
            self.data = bytearray().join(chunks) if texts else bytearray(shell)
            self.order, self.lengths = order, array("L", map(len, texts))
            return self.data
        data = self.data
        del data[len(_HEAD) + sum(lengths) + len(_SEP) * (len(order) - 1) :]
        data += tail
        for digest in dirty:
            i = bisect_left(order, digest)
            text = _entry_text(digest, index.entries[digest])
            pos = len(_HEAD) + sum(lengths[:i]) + len(_SEP) * i
            if i < len(order) and order[i] == digest:
                data[pos : pos + lengths[i]] = text
                lengths[i] = len(text)
                continue
            if i < len(order):
                data[pos:pos] = text + _SEP
            else:  # after the last entry, which no separator follows
                data[pos - len(_SEP) : pos - len(_SEP)] = _SEP + text
            order.insert(i, digest)
            lengths.insert(i, len(text))
        return data


# At most one dataset's index per process, keyed by index.json's path.
_CACHE: dict[Path, _CachedIndex] = {}


def _index_path(dest) -> Path:
    return (Path(dest) / INDEX_NAME).absolute()


def _read_index(path: Path) -> _CachedIndex:
    """The index in `path`, from the cache while the file holds exactly the cached bytes."""
    cached = _CACHE.get(path)
    if cached is None or not _file_holds(path, cached.data):
        _CACHE.clear()  # before parsing: never two indexes alive at once
        try:
            data = path.read_bytes()
        except FileNotFoundError:
            data = None
        cached = _CachedIndex(_parse_index(path, data), data)
        _CACHE[path] = cached
    return cached


def _file_holds(path: Path, data: bytes | bytearray | None) -> bool:
    """Whether `path` holds exactly `data` (None: there is no file).

    It compares a chunk at a time: a second whole copy of the index per
    store would leave the process's heap, and so its peak RSS, larger.
    """
    if data is None:
        return not path.exists()
    try:
        fh = open(path, "rb")
    except FileNotFoundError:
        return False
    with fh:
        pos = 0
        while chunk := fh.read(1 << 16):
            if chunk != data[pos : pos + len(chunk)]:
                return False
            pos += len(chunk)
        return pos == len(data)


def _parse_index(path: Path, data: bytes | None) -> BinaryIndex:
    if data is None:
        return BinaryIndex()
    try:
        return BinaryIndex.from_dict(json.loads(data))
    except ValueError as err:  # not UTF-8, or not JSON
        raise IntegrityError(f"{path}: not a valid index: {err}") from None
    except IntegrityError as err:
        raise IntegrityError(f"{path}: {err}") from None


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
        _write_index(_index_path(dest), _CachedIndex(index).render(()))


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
    kinds = {".wasm": "wasm", ".wat": "wat"}
    return [(p, kinds[s]) for p in tree_files(root) if (s := p.suffix.lower()) in kinds]


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
    only when that origin is new. Returns a shallow copy of the updated index.
    """
    dest = Path(dest)
    dest.mkdir(parents=True, exist_ok=True)
    with _DatasetLock(dest):
        return _store(files, dest, repo_id, root, wat).index.copy()


def store_dedup_rendered(files, dest, repo_id: str, root=None, wat: WatConversion | None = None) -> bytes:
    """store_dedup, returning the bytes index.json holds after it instead."""
    dest = Path(dest)
    dest.mkdir(parents=True, exist_ok=True)
    with _DatasetLock(dest):
        return bytes(_store(files, dest, repo_id, root, wat).data)


def _store(files, dest: Path, repo_id: str, root, wat: WatConversion | None) -> _CachedIndex:
    """store_dedup's work, under the dataset lock; returns the updated cache."""
    path = _index_path(dest)

    def origin(file) -> str:
        file = Path(file)
        return report_path((file.relative_to(root) if root is not None else file).as_posix())

    cached = _read_index(path)
    index = cached.index
    wat_before = (index.wat_converted, index.wat_unconverted)  # record_wat replaces the list
    dirty = set()
    try:
        for file in files:
            digest = _store_blob(dest, Path(file))
            if index.add_origin(digest, repo_id, origin(file)):
                dirty.add(digest)
        if wat is not None:
            for source, output in wat.converted:
                digest = _store_blob(dest, output)
                if index.add_origin(digest, repo_id, origin(source)):
                    dirty.add(digest)
                    index.wat_converted += 1
            index.record_wat(
                {origin(source) for source, _ in wat.converted},
                [dict(u, path=origin(u["path"])) for u in wat.unconverted],
            )
        if dirty or cached.data is None or wat_before != (index.wat_converted, index.wat_unconverted):
            _write_index(path, cached.render(dirty))
    except BaseException:
        # The cached index may hold changes that never reached the file.
        _CACHE.pop(path, None)
        raise
    return cached


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
    """Run each .wat through the converter template; failures are data.

    Without a converter (None, a blank template or a tool not on PATH)
    every file is skipped. A template shlex cannot read is a ValueError,
    raised before any file is touched.
    """
    result = WatConversion()
    template = _split_command(converter or "")
    if not template or shutil.which(template[0]) is None:
        result.skipped = [Path(f) for f in files]
        return result
    work_dir = Path(work_dir)
    work_dir.mkdir(parents=True, exist_ok=True)
    for i, path in enumerate(files):
        path = Path(path)
        out_path = work_dir / f"wat-{i}-{path.stem}.wasm"
        cmd = [part.replace("{in}", str(path)).replace("{out}", str(out_path)) for part in template]
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


def _split_command(template: str) -> list[str]:
    """A command template's argv; ValueError naming the template if shlex cannot read it."""
    try:
        return shlex.split(template)
    except ValueError as err:
        raise ValueError(f"cannot parse command {template!r}: {err}") from None


def _run_step(command: str, argv: list[str], cwd: Path, timeout: float) -> BuildStep:
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
    """Run wrapper builds for every CMake/Make directory under repo_root:
    the CMake directories first, each followed by its Makefile if there is
    one once CMake has run, then the Make-only ones. Both wrappers are
    read before anything runs; one shlex cannot read is a ValueError."""
    repo_root = Path(repo_root)
    cmake = (cmake_wrapper, _split_command(cmake_wrapper))
    make = (make_wrapper, _split_command(make_wrapper))
    log = BuildLog()
    cmake_dirs, make_dirs = set(), set()
    for path in tree_files(repo_root):
        if path.name == "CMakeLists.txt":
            cmake_dirs.add(path.parent)
        elif path.name == "Makefile":
            make_dirs.add(path.parent)
    for d in sorted(cmake_dirs) + sorted(make_dirs - cmake_dirs):
        steps = [_run_step(*cmake, d, timeout)] if d in cmake_dirs else []
        if d not in cmake_dirs or (d / "Makefile").exists():
            steps.append(_run_step(*make, d, timeout))
        log.directories.append(
            {
                "dir": report_path(d.relative_to(repo_root).as_posix()) or ".",
                "steps": [s.to_dict() for s in steps],
            }
        )
    if not log.directories:
        log.directories.append({"dir": ".", "status": "no-build-system", "steps": []})
    return log
