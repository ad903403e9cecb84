import hashlib
import json
import os
import random
import signal
import stat
import subprocess
import sys
import threading
import time

import pytest

from wasmsmell import dataset
from wasmsmell.dataset import (
    BinaryIndex,
    IntegrityError,
    WatConversion,
    _DatasetLock,
    convert_wat,
    load_index,
    orchestrate_build,
    save_index,
    scan_binaries,
    sha256_file,
    store_dedup,
)
from wasmsmell.report import canonical_json

EMPTY_SHA256 = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"


def test_sha256_of_empty_file(tmp_path):
    f = tmp_path / "empty.wasm"
    f.write_bytes(b"")
    assert sha256_file(f) == EMPTY_SHA256


def test_scan_binaries_case_insensitive_and_sorted(tmp_path):
    (tmp_path / "b.WASM").write_bytes(b"x")
    (tmp_path / "a.wasm").write_bytes(b"x")
    sub = tmp_path / "sub"
    sub.mkdir()
    (sub / "m.wat").write_text("(module)")
    (tmp_path / "readme.txt").write_text("not a binary")
    found = scan_binaries(tmp_path)
    assert [(p.name, kind) for p, kind in found] == [
        ("a.wasm", "wasm"),
        ("b.WASM", "wasm"),
        ("m.wat", "wat"),
    ]


def make_tree(tmp_path):
    tree = tmp_path / "tree"
    tree.mkdir()
    (tree / "one.wasm").write_bytes(b"\0asm-one")
    (tree / "two.wasm").write_bytes(b"\0asm-one")  # byte-identical to one
    (tree / "three.wasm").write_bytes(b"\0asm-three")
    return tree


def test_store_dedup_two_files_three_origins(tmp_path):
    tree = make_tree(tmp_path)
    dest = tmp_path / "dataset"
    files = [p for p, kind in scan_binaries(tree) if kind == "wasm"]
    index = store_dedup(files, dest, "repo-a", root=tree)

    stored = sorted(p for p in dest.glob("*.wasm"))
    assert len(stored) == 2
    for p in stored:
        assert sha256_file(p) == p.stem  # hash-named correctly
    assert sum(len(v) for v in index.entries.values()) == 3


def test_store_dedup_idempotent(tmp_path):
    tree = make_tree(tmp_path)
    dest = tmp_path / "dataset"
    files = [p for p, kind in scan_binaries(tree) if kind == "wasm"]
    store_dedup(files, dest, "repo-a", root=tree)
    first = (dest / "index.json").read_bytes()
    store_dedup(files, dest, "repo-a", root=tree)
    second = (dest / "index.json").read_bytes()
    assert first == second


def test_store_dedup_merges_second_repo(tmp_path):
    dest = tmp_path / "dataset"
    a = tmp_path / "a.wasm"
    a.write_bytes(b"shared-bytes")
    b = tmp_path / "b.wasm"
    b.write_bytes(b"shared-bytes")
    store_dedup([a], dest, "repo-a")
    index = store_dedup([b], dest, "repo-b")
    (entry,) = index.entries.values()
    assert [o["repo"] for o in entry] == ["repo-a", "repo-b"]
    assert len(list(dest.glob("*.wasm"))) == 1


def test_integrity_error_on_corrupted_store(tmp_path):
    dest = tmp_path / "dataset"
    a = tmp_path / "a.wasm"
    a.write_bytes(b"payload")
    store_dedup([a], dest, "repo-a")
    stored = next(dest.glob("*.wasm"))
    stored.write_bytes(b"tampered")
    with pytest.raises(IntegrityError):
        store_dedup([a], dest, "repo-a")


def test_lock_released_after_run(tmp_path):
    dest = tmp_path / "dataset"
    a = tmp_path / "a.wasm"
    a.write_bytes(b"payload")
    store_dedup([a], dest, "repo-a")
    assert not (dest / ".lock").exists()


def test_index_roundtrip(tmp_path):
    idx = BinaryIndex()
    idx.add_origin("ff" * 32, "r", "x/y.wasm")
    idx.wat_converted = 2
    save_index(tmp_path, idx)
    loaded = load_index(tmp_path)
    assert loaded.to_dict() == idx.to_dict()
    doc = json.loads((tmp_path / "index.json").read_text())
    assert doc["schema_version"] == 1


def assert_canonical(dest):
    data = (dest / "index.json").read_bytes()
    assert data == canonical_json(BinaryIndex.from_dict(json.loads(data)).to_dict())
    return data


def blob(tmp_path, name, payload):
    path = tmp_path / "src" / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(payload)
    return path


def test_index_bytes_canonical_after_every_store(tmp_path):
    dest = tmp_path / "dataset"
    store_dedup([], dest, "nobody")
    assert assert_canonical(dest) == canonical_json(BinaryIndex().to_dict())

    preload = BinaryIndex()
    for i in range(300):
        preload.add_origin(hashlib.sha256(b"pre-%d" % i).hexdigest(), f"repo-{i % 7}", f"büild/m{i}.wasm")
    preload.wat_unconverted.append({"path": "ünï.wat", "stderr": "bad\n"})
    save_index(dest, preload)
    assert_canonical(dest)

    calls = [
        ([blob(tmp_path, "ñew/α.wasm", b"fresh-1")], "répo-a"),
        ([blob(tmp_path, "dup.wasm", b"pre-5")], "répo-b"),  # a hash already indexed
        ([blob(tmp_path, "x.wasm", b"fresh-2"), blob(tmp_path, "y.wasm", b"pre-5")], "z"),
        ([blob(tmp_path, "dup.wasm", b"pre-5")], "répo-b"),  # no change at all
        ([], "nobody"),
    ]
    for files, repo in calls:
        index = store_dedup(files, dest, repo, root=tmp_path / "src")
        assert assert_canonical(dest) == canonical_json(index.to_dict())
    origins = index.entries[hashlib.sha256(b"pre-5").hexdigest()]
    assert [o["repo"] for o in origins] == ["repo-5", "répo-b", "z"]
    assert len(index.entries) == 302


ODD_NAMES = ["plain", "ñew-α", 'quo"te', "back\\slash", "tab\there", "ü ber", "日本", "ctl\x01"]


@pytest.mark.parametrize("seed", range(4))
def test_spliced_index_equals_full_render_over_random_stores(tmp_path, seed):
    rng = random.Random(seed)
    dest = tmp_path / "dataset"
    src = tmp_path / "src"
    path = (dest / "index.json").absolute()
    payload = {hashlib.sha256(b).hexdigest(): b for b in (b"blob-%d-%d" % (seed, i) for i in range(300))}
    known = sorted(payload)[100:200:2]  # hashes in order; room before, between and after
    unknown = [h for h in sorted(payload) if h not in known]
    preload = [blob(tmp_path, f"pre/{i}.wasm", payload[h]) for i, h in enumerate(known)]
    store_dedup(preload, dest, "preload", root=src)
    seen = {"first": 0, "between": 0, "last": 0, "origin": 0, "several": 0, "wat": 0, "none": 0}

    def pick(kind):
        lo, hi = min(known), max(known)
        pool = {
            "first": [h for h in unknown if h < lo],
            "last": [h for h in unknown if h > hi],
            "between": [h for h in unknown if lo < h < hi],
            "origin": known,
        }[kind]
        return rng.choice(pool) if pool else known[0]

    for step in range(120):
        kind = rng.choice(list(seen))
        name = rng.choice(ODD_NAMES)
        repo = f"{rng.choice(ODD_NAMES)}-{rng.randrange(3)}"
        before = path.read_bytes()
        if kind == "none":  # an origin the index already has
            chosen = []
            index = store_dedup([rng.choice(preload)], dest, "preload", root=src)
            assert path.read_bytes() == before
        elif kind == "wat":
            out = tmp_path / "out" / f"{step}.wasm"
            out.parent.mkdir(exist_ok=True)
            chosen = [pick(rng.choice(["between", "origin"]))]
            out.write_bytes(payload[chosen[0]])
            converted = [(src / name / f"{step}.wat", out)] if rng.random() < 0.7 else []
            unconverted = [{"path": str(src / f"{rng.choice(ODD_NAMES)}.wat"), "stderr": f"bad {step}\t\\"}]
            wat = WatConversion(converted, unconverted[: rng.randrange(2)])
            index = store_dedup([], dest, repo, root=src, wat=wat)
            chosen = chosen[: len(converted)]
        else:
            count = rng.randint(2, 5) if kind == "several" else 1
            chosen = [pick(rng.choice(["first", "between", "last", "origin"]) if kind == "several" else kind)
                      for _ in range(count)]
            files = [blob(tmp_path, f"{name}/{step}-{k}.wasm", payload[h]) for k, h in enumerate(chosen)]
            index = store_dedup(files, dest, repo, root=src)
        for h in chosen:
            if h in unknown:
                unknown.remove(h)
                known.append(h)
        known.sort()
        seen[kind] += 1

        data = path.read_bytes()
        assert data == canonical_json(index.to_dict()), (step, kind)
        assert data == canonical_json(BinaryIndex.from_dict(json.loads(data)).to_dict())
        assert data == canonical_json(load_index(dest).to_dict())
        cached = dataset._CACHE[path]
        assert cached.data == data
        assert cached.order == sorted(index.entries)  # the next store edits this layout
        assert sum(cached.lengths) + 2 * (len(cached.order) - 1) < len(data)
    assert min(seen.values()) > 0
    assert len(index.entries) == len(known)


def test_save_index_renders_entries_without_origins(tmp_path):
    index = BinaryIndex({"aa": [], "bb": [{"path": "p", "repo": "r"}]})
    save_index(tmp_path, index)
    assert (tmp_path / "index.json").read_bytes() == canonical_json(index.to_dict())
    assert load_index(tmp_path).to_dict() == index.to_dict()


def test_index_rewritten_behind_cache_is_reread(tmp_path):
    dest = tmp_path / "dataset"
    store_dedup([blob(tmp_path, "a.wasm", b"one")], dest, "repo-a")
    path = dest / "index.json"
    before = path.stat()
    data = path.read_bytes()
    with open(path, "r+b") as fh:  # same length, in place, same mtime
        fh.write(data.replace(b'"repo-a"', b'"repo-q"'))
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))

    assert [o["repo"] for (o,) in load_index(dest).entries.values()] == ["repo-q"]
    index = store_dedup([blob(tmp_path, "b.wasm", b"two")], dest, "repo-b")
    assert sorted(o["repo"] for origins in index.entries.values() for o in origins) == [
        "repo-b", "repo-q",
    ]
    assert_canonical(dest)


def test_changing_returned_index_does_not_leak(tmp_path):
    dest = tmp_path / "dataset"
    a = blob(tmp_path, "a.wasm", b"one")
    index = store_dedup([a], dest, "repo-a")
    snapshot = (dest / "index.json").read_bytes()
    (origins,) = index.entries.values()
    assert type(origins) is tuple  # so no handout can append to the cache's origins
    index.entries["ff" * 32] = [{"repo": "intruder", "path": "y"}]
    index.wat_converted = 9
    index.wat_unconverted.append({"path": "z.wat", "stderr": ""})
    loaded = load_index(dest)
    loaded.entries.clear()

    assert canonical_json(load_index(dest).to_dict()) == snapshot
    store_dedup([a], dest, "repo-a")
    assert (dest / "index.json").read_bytes() == snapshot


def test_handed_out_indexes_share_the_cached_origin_tuples(tmp_path):
    dest = tmp_path / "dataset"
    stored = store_dedup([blob(tmp_path, f"m{i}.wasm", b"m%d" % i) for i in range(3)], dest, "repo-a")
    loaded = load_index(dest)
    assert stored.entries is not loaded.entries
    assert stored.entries.keys() == loaded.entries.keys()
    for digest, origins in stored.entries.items():
        assert origins is loaded.entries[digest]


def test_failed_store_leaves_index_unchanged(tmp_path):
    dest = tmp_path / "dataset"
    a = blob(tmp_path, "a.wasm", b"one")
    store_dedup([a], dest, "repo-a")
    snapshot = (dest / "index.json").read_bytes()
    next(dest.glob("*.wasm")).write_bytes(b"tampered")
    with pytest.raises(IntegrityError):
        store_dedup([blob(tmp_path, "b.wasm", b"two"), a], dest, "repo-b")
    assert (dest / "index.json").read_bytes() == snapshot
    assert canonical_json(load_index(dest).to_dict()) == snapshot


def test_lock_of_killed_holder_is_released(tmp_path):
    dest = tmp_path / "dataset"
    dest.mkdir()
    holder = subprocess.Popen(
        [sys.executable, "-c", (
            "import fcntl, os, sys, time\n"
            "fd = os.open(sys.argv[1], os.O_RDONLY)\n"
            "fcntl.flock(fd, fcntl.LOCK_EX)\n"
            "print('locked', flush=True)\n"
            "time.sleep(60)\n"
        ), str(dest)],
        stdout=subprocess.PIPE, text=True,
    )
    try:
        assert holder.stdout.readline().strip() == "locked"
        with pytest.raises(TimeoutError):
            with _DatasetLock(dest, timeout=0.2):
                pass
    finally:
        holder.send_signal(signal.SIGKILL)
        holder.wait(timeout=10)
        holder.stdout.close()
    started = time.monotonic()
    store_dedup([blob(tmp_path, "a.wasm", b"one")], dest, "repo-a")
    assert time.monotonic() - started < 5
    assert [p.name for p in dest.iterdir() if p.name.startswith(".")] == []


def test_concurrent_writers_lose_no_origin(tmp_path):
    dest = tmp_path / "dataset"
    dest.mkdir()
    n = 15

    def store_all(worker):
        for i in range(n):
            store_dedup([blob(tmp_path, f"{worker}/{i}.wasm", b"%s-%d" % (worker.encode(), i))],
                        dest, worker, root=tmp_path / "src")

    code = (
        "import sys\n"
        "from pathlib import Path\n"
        "from wasmsmell.dataset import store_dedup\n"
        "tmp, worker, n = Path(sys.argv[1]), sys.argv[2], int(sys.argv[3])\n"
        "for i in range(n):\n"
        "    f = tmp / 'src' / worker / f'{i}.wasm'\n"
        "    f.parent.mkdir(parents=True, exist_ok=True)\n"
        "    f.write_bytes(b'%s-%d' % (worker.encode(), i))\n"
        "    store_dedup([f], tmp / 'dataset', worker, root=tmp / 'src')\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    procs = [
        subprocess.Popen([sys.executable, "-c", code, str(tmp_path), f"proc{k}", str(n)], env=env)
        for k in range(2)
    ]
    threads = [threading.Thread(target=store_all, args=(f"thread{k}",)) for k in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert [p.wait(timeout=60) for p in procs] == [0, 0]

    index = load_index(dest)
    assert sum(len(origins) for origins in index.entries.values()) == 4 * n
    assert len(index.entries) == 4 * n
    assert_canonical(dest)


def write_script(path, body):
    path.write_text("#!/bin/sh\n" + body)
    path.chmod(path.stat().st_mode | stat.S_IEXEC)


def test_convert_wat_with_working_converter(tmp_path, monkeypatch):
    tool = tmp_path / "bin" / "fakewat"
    tool.parent.mkdir()
    write_script(tool, 'cp "$1" "$2"\n')
    monkeypatch.setenv("PATH", f"{tool.parent}:{os.environ['PATH']}")
    wat = tmp_path / "m.wat"
    wat.write_text("(module)")
    result = convert_wat([wat], tmp_path / "work", "fakewat {in} {out}")
    ((source, output),) = result.converted
    assert source == wat
    assert output.read_text() == "(module)"
    assert result.unconverted == [] and result.skipped == []


def test_convert_wat_failure_recorded_not_raised(tmp_path, monkeypatch):
    tool = tmp_path / "bin" / "failwat"
    tool.parent.mkdir()
    write_script(tool, 'echo "syntax error" >&2\nexit 1\n')
    monkeypatch.setenv("PATH", f"{tool.parent}:{os.environ['PATH']}")
    wat = tmp_path / "m.wat"
    wat.write_text("(module")
    result = convert_wat([wat], tmp_path / "work", "failwat {in} {out}")
    assert result.converted == []
    assert len(result.unconverted) == 1
    assert "syntax error" in result.unconverted[0]["stderr"]


def test_convert_wat_tool_missing_skips(tmp_path):
    wat = tmp_path / "m.wat"
    wat.write_text("(module)")
    result = convert_wat([wat], tmp_path / "work", "definitely-not-a-tool-xyz {in} {out}")
    assert result.skipped == [wat]
    assert result.converted == [] and result.unconverted == []


def test_orchestrate_build_toolchain_unavailable(tmp_path):
    (tmp_path / "CMakeLists.txt").write_text("project(x)\n")
    log = orchestrate_build(tmp_path, cmake_wrapper="no-such-wrapper-cmd .", make_wrapper="also-missing")
    (entry,) = log.directories
    assert entry["dir"] == "."
    assert entry["steps"][0]["status"] == "toolchain-unavailable"


def test_orchestrate_build_runs_wrappers(tmp_path):
    (tmp_path / "Makefile").write_text("all:\n\ttrue\n")
    log = orchestrate_build(tmp_path, make_wrapper="true")
    (entry,) = log.directories
    assert entry["steps"][0]["status"] == "ok"
    assert entry["steps"][0]["exit_code"] == 0


def test_orchestrate_build_records_failure(tmp_path):
    (tmp_path / "Makefile").write_text("all:\n\tfalse\n")
    log = orchestrate_build(tmp_path, make_wrapper="false")
    (entry,) = log.directories
    assert entry["steps"][0]["status"] == "failed"


def test_orchestrate_build_no_build_system(tmp_path):
    (tmp_path / "main.c").write_text("int main(void){return 0;}\n")
    log = orchestrate_build(tmp_path)
    (entry,) = log.directories
    assert entry["status"] == "no-build-system"
