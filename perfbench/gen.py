"""Seeded input generators and their planted-truth tables.

Every generator is a pure function of its seed: it returns the files it
would write as ``{relative path: bytes}`` plus a truth table, so two
calls with one seed can be compared byte for byte before anything is
written.  The truth is recorded while the inputs are built (the line a
smell was emitted on, the line a heuristic was planted on, the SHA-256
of a blob), never by running the program under test.
"""

from __future__ import annotations

import hashlib
import json
import random

# -- smell snippets -----------------------------------------------------------
#
# One smelly and one corrected variant per golden/negative fixture pair under
# tests/fixtures.  A snippet is (lines, planted) where planted holds
# (checker, index of the line within the snippet).  Every variable carries
# the suffix ``s`` so snippets placed in one function never share state.


def _double_free(s, smelly):
    head = [f"char *df{s} = (char *)malloc(100 * sizeof(char));"]
    if smelly:
        return head + [f"free(df{s});", f"free(df{s});"], [("double-free", 2)]
    return head + [f"if (df{s} != NULL) {{", f"    free(df{s});", "}"], []


def _error_without_action(s, smelly):
    head = [f'FILE *fo{s} = fopen("file{s}.txt", "w+");']
    if smelly:
        return head + [f"fclose(fo{s});"], [("error-without-action", 1)]
    return head + [f"if (fo{s} != NULL) {{", f"    fclose(fo{s});", "}"], []


def _double_fclose(s, smelly):
    head = [f'FILE *fr{s} = freopen("f{s}.txt", "w+", stdin);']
    if smelly:
        return head + [f"fclose(fr{s});", f"fclose(fr{s});"], [
            ("error-without-action", 1),
            ("double-fclose", 2),
            ("error-without-action", 2),
        ]
    return head + [f"if (fr{s} != NULL) {{", f"    fclose(fr{s});", "}"], []


def _uninitialized_variable(s, smelly):
    if smelly:
        return [f"char *uv{s};", f'printf("%s", uv{s});'], [("uninitialized-variable", 1)]
    return [f'char *uv{s} = "hello";', f'printf("%s", uv{s});'], []


def _access_env(s, smelly):
    if smelly:
        return ['printf("%s", getenv("PATH"));'], [("access-env", 0)]
    return ['printf("%s", "a fixed path");'], []


def _bad_fputs_comparison(s, smelly):
    op = "==" if smelly else "<"
    lines = [f'if (fputs("string", stdout) {op} 0)', '    printf("fputs failed!\\n");']
    return lines, [("bad-fputs-comparison", 0)] if smelly else []


def _improper_resource_shutdown(s, smelly):
    if smelly:
        return [
            f'int fd{s} = open("file.txt", O_RDWR | O_CREAT, S_IREAD | S_IWRITE);',
            f"fclose((FILE *)fd{s});",
        ], [("improper-resource-shutdown", 1)]
    return [
        f'int fd{s} = open("file.txt", O_RDWR);',
        f"if (fd{s} >= 0) {{",
        f"    close(fd{s});",
        "}",
    ], []


def _wide_string(s, smelly):
    # The corrected variant calls fwide(), which clears the smell for the rest
    # of the path, so a function holds at most one snippet of this kind.
    if smelly:
        return ['wprintf(L"%ls\\n", L"string");'], [("wide-string", 0)]
    return ["fwide(stdout, 1);", 'wprintf(L"%ls\\n", L"string");'], []


def _format_arg_type(s, smelly):
    if smelly:
        return ['printf("%s", 5);'], [("format-arg-type", 0)]
    return ['printf("%d", 5);'], []


def _alloca_free(s, smelly):
    head = [f"char *al{s} = (char *)alloca(100 * sizeof(char));"]
    if smelly:
        return head + [f"free(al{s});"], [("alloca-free", 1)]
    return head + [f"al{s}[0] = 'x';"], []


def _format_arg_count(s, smelly):
    if smelly:
        return ['printf("%s %s\\n", "one");'], [("format-arg-count", 0)]
    return ['printf("%s %s\\n", "one", "two");'], []


def _offset_free(s, smelly):
    head = [f"char *of{s} = (char *)malloc(100 * sizeof(char));"]
    if smelly:
        return head + [f"of{s}++;", f"free(of{s});"], [("offset-free", 2)]
    return head + [f"if (of{s} != NULL) {{", f"    free(of{s});", "}"], []


def _pointer_subtraction(s, smelly):
    if smelly:
        return [
            f'char ms{s}[] = "a/b";',
            f'char mt{s}[] = "a/b";',
            f"char *sl{s} = strchr(ms{s}, '/');",
            f'printf("%d\\n", sl{s} - mt{s});',
        ], [("pointer-subtraction", 3)]
    return [
        f'char ms{s}[] = "a/b";',
        f"char *sl{s} = strchr(ms{s}, '/');",
        f"if (sl{s} != NULL) {{",
        f'    printf("%s\\n", sl{s});',
        "}",
    ], []


SNIPPETS = {
    "a": _double_free,
    "b": _error_without_action,
    "c": _double_fclose,
    "d": _uninitialized_variable,
    "e": _access_env,
    "f": _bad_fputs_comparison,
    "g": _improper_resource_shutdown,
    "h": _wide_string,
    "i": _format_arg_type,
    "j": _alloca_free,
    "k": _format_arg_count,
    "l": _offset_free,
    "m": _pointer_subtraction,
}

# Snippets whose smelly form has no branch, so they keep a prefix straight.
STRAIGHT_KINDS = ("a", "b", "c", "d", "e", "g", "h", "i", "k", "m")

INCLUDES = (
    "#include <stdio.h>",
    "#include <stdlib.h>",
    "#include <string.h>",
    "#include <wchar.h>",
    "#include <alloca.h>",
    "#include <fcntl.h>",
    "#include <unistd.h>",
    "#include <sys/stat.h>",
)


class _Emitter:
    """Collects lines of one C file and the planted findings on them."""

    def __init__(self, rel_path: str):
        self.rel_path = rel_path
        self.lines: list[str] = []
        self.planted: list[tuple[str, str, int]] = []

    def add(self, line: str = "", indent: int = 0):
        self.lines.append(" " * indent + line)

    def snippet(self, kind: str, suffix: str, smelly: bool, indent: int):
        lines, planted = SNIPPETS[kind](suffix, smelly)
        first = len(self.lines) + 1
        for line in lines:
            self.add(line, indent)
        for checker, offset in planted:
            self.planted.append((checker, self.rel_path, first + offset))

    def data(self) -> bytes:
        return ("\n".join(self.lines) + "\n").encode("utf-8")


def _filler_function(em: _Emitter, name: str, rng: random.Random):
    k = rng.randrange(2, 9)
    em.add(f"/* {name}: accumulate a small series; no smell here. */")
    em.add(f"static int {name}(int x, int y) {{")
    em.add("int total = 0;", 4)
    em.add("for (int i = 0; i < x; i++) {", 4)
    em.add(f"total = total + i * {k} - y;", 8)
    em.add("}", 4)
    em.add(f"return total + {rng.randrange(100)};", 4)
    em.add("}")
    em.add()


# -- fuzz-parse -----------------------------------------------------------------

FUZZ_STREAM_SEED = 1234  # the seed of tier-1 acceptance criterion 5
FUZZ_STREAM_LEN = 10_000  # strings criterion 5 parses
FUZZ_ITEMS = 500


def fuzz_window(seed: int) -> tuple[int, list[bytes]]:
    """A window of FUZZ_ITEMS strings from the criterion-5 stream.

    The stream is the one tier-1 criterion 5 draws (Random(1234), lengths
    0-4096); the seed picks which of its twenty windows the run parses.
    """
    start = (seed % (FUZZ_STREAM_LEN // FUZZ_ITEMS)) * FUZZ_ITEMS
    rng = random.Random(FUZZ_STREAM_SEED)
    out = []
    for i in range(start + FUZZ_ITEMS):
        data = rng.randbytes(rng.randrange(0, 4097))
        if i >= start:
            out.append(data)
    return start, out


def gen_fuzz_parse(seed: int):
    start, items = fuzz_window(seed)
    files = {f"fuzz/{i:04d}.bin": data for i, data in enumerate(items)}
    return files, {"items": sorted(files), "stream_start": start}


# -- analyze-flat ---------------------------------------------------------------

FLAT_PROJECTS = 40
FLAT_C_FILES = 3
FLAT_SMELL_FUNCS = 3
FLAT_SNIPPETS_PER_FUNC = 2
FLAT_BRANCHES = (3, 4, 5)  # independent ifs in each smell function of a file


def _flat_c_file(rel: str, tag: str, rng: random.Random, kinds: list[str]) -> _Emitter:
    em = _Emitter(rel)
    em.add(f"/* {rel}: generated translation unit {tag}. */")
    for inc in INCLUDES:
        em.add(inc)
    em.add('#include "api.h"')
    em.add(f"#define LIMIT_{tag} {rng.randrange(8, 64)}")
    em.add()
    em.add(f"struct state_{tag} {{")
    em.add("int count;", 4)
    em.add("char *name;", 4)
    em.add("};")
    em.add()
    _filler_function(em, f"sum_{tag}_0", rng)
    slot = 0
    for fn in range(FLAT_SMELL_FUNCS):
        em.add(f"// entry point {fn} of unit {tag}")
        em.add(f"int run_{tag}_{fn}(int n, char *arg) {{")
        em.add(f"int acc = sum_{tag}_0(n, {rng.randrange(10)});", 4)
        used_h = False
        for _ in range(FLAT_SNIPPETS_PER_FUNC):
            kind = kinds[slot]
            slot += 1
            if kind == "h":
                if used_h:
                    kind = "e"
                used_h = True
            em.snippet(kind, f"_{tag}_{slot}", rng.random() < 0.5, 4)
        # A few independent branches and one small loop: at most
        # 4 * 2**5 * 3 paths, far below the default budget of 4,096.
        for i in range(FLAT_BRANCHES[fn]):
            em.add(f"if (n > {i * 3}) {{", 4)
            em.add(f"acc = acc + {rng.randrange(1, 9)};", 8)
            em.add("}", 4)
        em.add("for (int k = 0; k < n; k++) {", 4)
        em.add("acc = acc + k;", 8)
        em.add("}", 4)
        em.add("return acc;", 4)
        em.add("}")
        em.add()
    _filler_function(em, f"sum_{tag}_1", rng)
    return em


def gen_analyze_flat(seed: int):
    rng = random.Random(f"analyze-flat:{seed}")
    files: dict[str, bytes] = {}
    projects = []
    per_project = FLAT_C_FILES * FLAT_SMELL_FUNCS * FLAT_SNIPPETS_PER_FUNC
    kinds_cycle = list(SNIPPETS)
    for p in range(FLAT_PROJECTS):
        name = f"proj{p:03d}"
        kinds = [kinds_cycle[(p * per_project + i) % len(kinds_cycle)] for i in range(per_project)]
        rng.shuffle(kinds)
        planted = []
        header = [
            "#ifndef API_H",
            "#define API_H",
            f"/* public interface of {name} */",
        ]
        for c in range(FLAT_C_FILES):
            tag = f"{p}_{c}"
            header.append(f"int run_{tag}_0(int n, char *arg);")
            rel = f"src/unit{c}.c"
            chunk = kinds[c * FLAT_SMELL_FUNCS * FLAT_SNIPPETS_PER_FUNC:(c + 1) * FLAT_SMELL_FUNCS * FLAT_SNIPPETS_PER_FUNC]
            em = _flat_c_file(rel, tag, rng, chunk)
            files[f"flat/{name}/{rel}"] = em.data()
            planted.extend(em.planted)
        header.append("#endif")
        files[f"flat/{name}/include/api.h"] = ("\n".join(header) + "\n").encode()
        projects.append({"name": name, "planted": sorted(planted)})
    return files, {"projects": projects}


# -- analyze-branchy ----------------------------------------------------------

BRANCHY_FILES = 40
# (independent ifs, small loops) of the functions in one round.  Chains of 13
# or more ifs, or 10 ifs and two loops, pass the default 4,096-path budget;
# the small shapes stay far below it.  Twelve files hold one exhausting
# function and a 64-path partner, the other 28 two small functions, so the
# engine's work and the spread of file times are the same whatever the seed.
BRANCHY_EXHAUSTING = [(13, 0)] * 4 + [(14, 0)] * 4 + [(10, 2)] * 4
BRANCHY_PARTNER = (6, 0)
BRANCHY_SMALL = [(6, 0)] * 2 + [(7, 1)] * 14 + [(8, 0)] * 12 + [(9, 1)] * 14 + [(5, 2)] * 14
BRANCHY_PREFIX_SNIPPETS = 2
# Smelly snippets that plant one finding each; every fourth branch body holds
# one.  The engine reports a smell again on every path through its branch, so
# fixed depths keep that work the same whatever the seed.
BODY_KINDS = ("a", "b", "d", "e", "g", "h", "i", "k", "m")


def _branchy_function(em: _Emitter, name: str, ifs: int, loops: int, rng: random.Random):
    em.add(f"int {name}(int a, int b, int n) {{")
    em.add("int acc = 0;", 4)
    prefix = []
    for i, kind in enumerate(rng.sample(STRAIGHT_KINDS, BRANCHY_PREFIX_SNIPPETS)):
        before = len(em.planted)
        em.snippet(kind, f"_{name}_p{i}", True, 4)
        prefix.extend(em.planted[before:])
    in_branches = []
    loop_at = sorted(rng.sample(range(ifs + 1), loops))
    for i in range(ifs):
        while loop_at and loop_at[0] == i:
            loop_at.pop(0)
            em.add(f"for (int i{i} = 0; i{i} < n; i{i}++) {{", 4)
            em.add(f"acc = acc + i{i};", 8)
            em.add("}", 4)
        var = "a" if i % 2 == 0 else "b"
        em.add(f"if ({var} > {i}) {{", 4)
        if i % 4 == 2:
            before = len(em.planted)
            em.snippet(rng.choice(BODY_KINDS), f"_{name}_b{i}", True, 8)
            in_branches.extend(em.planted[before:])
        else:
            em.add(f"acc = acc * 3 + {rng.randrange(1, 50)};", 8)
        em.add("}", 4)
    for j in loop_at:
        em.add(f"for (int j{j} = 0; j{j} < n; j{j}++) {{", 4)
        em.add(f"acc = acc - j{j};", 8)
        em.add("}", 4)
    em.add("return acc;", 4)
    em.add("}")
    em.add()
    return prefix, in_branches


def gen_analyze_branchy(seed: int):
    rng = random.Random(f"analyze-branchy:{seed}")
    big, small = list(BRANCHY_EXHAUSTING), list(BRANCHY_SMALL)
    rng.shuffle(big)
    rng.shuffle(small)
    per_file = [[shape, BRANCHY_PARTNER] for shape in big]
    per_file += [small[k:k + 2] for k in range(0, len(small), 2)]
    assert len(per_file) == BRANCHY_FILES
    rng.shuffle(per_file)
    files: dict[str, bytes] = {}
    items = []
    for f, shapes in enumerate(per_file):
        rel = f"branchy/file{f:03d}.c"
        em = _Emitter(rel)
        em.add(f"/* {rel}: branch chains */")
        for inc in INCLUDES:
            em.add(inc)
        em.add()
        must, may = [], []
        rng.shuffle(shapes)
        for k, (ifs, loops) in enumerate(shapes):
            prefix, branches = _branchy_function(em, f"chain_{f}_{k}", ifs, loops, rng)
            must.extend(prefix)
            may.extend(branches)
        files[rel] = em.data()
        items.append({"file": rel, "must": sorted(must), "may": sorted(may)})
    return files, {"files": items}


# -- curate -------------------------------------------------------------------

CURATE_REPOS = 40
PRELOAD_BINARIES = 8915
PRELOAD_REPOS = 2540
KEYWORDS = ("webassembly", "wasm", "emscripten")
_VOCAB = """
    project library toolkit engine renderer parser codec compressor solver
    simulation physics audio video image graphics network protocol client
    server browser runtime module plugin script interface bindings wrapper
    portable native fast small simple robust modern lightweight efficient
    build compile install configure test benchmark example demo tutorial
    guide support platform linux windows macos desktop mobile embedded
    memory thread buffer stream packet socket file archive format header
    source binary release version license contributor ticket feature patch
    matrix vector tensor kernel shader texture mesh scene camera sprite
    game player level score input output keyboard mouse touch window
    database query index cache storage record table schema migration
    crypto hash cipher signature certificate token login account user
    document editor viewer markdown syntax highlight theme layout widget
""".split()


def _readme(rng: random.Random, relevant: bool) -> str:
    lines = [f"# {rng.choice(_VOCAB).title()} {rng.choice(_VOCAB).title()}", ""]
    for _ in range(12):
        words = [rng.choice(_VOCAB) for _ in range(rng.randrange(8, 13))]
        if relevant:
            words.insert(rng.randrange(len(words) + 1), rng.choice(KEYWORDS))
        lines.append(" ".join(words).capitalize() + ".")
    return "\n".join(lines) + "\n"


def _blob(rng: random.Random) -> bytes:
    return b"\0asm\x01\0\0\0" + rng.randbytes(rng.randrange(56, 1024))


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def gen_curate(seed: int):
    rng = random.Random(f"curate:{seed}")
    files: dict[str, bytes] = {}

    # Preloaded dataset at the paper's scale: blobs plus their origins.
    preload = []
    for i in range(PRELOAD_BINARIES):
        data = _blob(rng)
        origins = [{"repo": f"pre-{i % PRELOAD_REPOS:04d}", "path": f"dist/m{i}.wasm"}]
        if i % 10 == 0:
            origins.append({"repo": f"pre-{(i * 7 + 3) % PRELOAD_REPOS:04d}", "path": f"vendor/m{i}.wasm"})
        preload.append((_sha(data), data, origins))

    # Blob plan for the timed repos, fixed per round: 60 new blobs, 15 new
    # blobs that each appear in two repos, and 30 blobs already preloaded.
    slots = [("new", None)] * 60 + [("shared", k) for k in range(15) for _ in range(2)]
    slots += [("preloaded", None)] * 30
    rng.shuffle(slots)
    shared = [_blob(rng) for _ in range(15)]
    flags = {
        name: [i < CURATE_REPOS // 2 for i in range(CURATE_REPOS)]
        for name in ("relevant", "h1", "h2", "h3")
    }
    for v in flags.values():
        rng.shuffle(v)

    repos = []
    for r in range(CURATE_REPOS):
        rid = f"repo-{r:03d}"
        base = f"repos/{rid}"
        relevant = flags["relevant"][r]
        files[f"{base}/README.md"] = _readme(rng, relevant).encode()

        h1 = []
        mk = ["# generated Makefile", f"OUT = app{r}", ""]
        if flags["h1"][r]:
            mk.append("CC = emcc")
            h1.append(["Makefile", len(mk)])
        else:
            mk.append("CC = gcc")
        mk += ["CFLAGS = -O2 -Wall", "", "all:", "\t$(CC) $(CFLAGS) src/main.c src/util.c -o $(OUT)", ""]
        files[f"{base}/Makefile"] = "\n".join(mk).encode()

        h2 = []
        main = [f"/* {rid} main */", "#include <stdio.h>", "#include <stdlib.h>"]
        if flags["h2"][r]:
            header = rng.choice(["emscripten.h", "emscripten/html5.h"])
            main.append(f"#include <{header}>")
            h2.append(["src/main.c", len(main)])
        main += ["", "int main(void) {", '    printf("hello\\n");', "    return 0;", "}", ""]
        files[f"{base}/src/main.c"] = "\n".join(main).encode()
        files[f"{base}/src/util.c"] = (
            f'#include "util.h"\n#include <string.h>\n\nint util_{r}(int x) {{ return x * {r + 2}; }}\n'
        ).encode()
        files[f"{base}/src/util.h"] = f"int util_{r}(int x);\n".encode()

        h3 = []
        js = [f"// loader for {rid}", "const url = 'dist/app.bin';", ""]
        if flags["h3"][r]:
            api = rng.choice(["instantiate", "instantiateStreaming", "compile"])
            js.append(f"const mod = await WebAssembly.{api}(bytes, imports);")
            h3.append(["web/loader.js", len(js)])
        else:
            js.append("const mod = await fetch(url).then((r) => r.arrayBuffer());")
        js.append("export default mod;")
        files[f"{base}/web/loader.js"] = ("\n".join(js) + "\n").encode()

        blobs = []
        for b, (how, k) in enumerate(slots[r * 3:(r + 1) * 3]):
            if how == "new":
                data = _blob(rng)
            elif how == "shared":
                data = shared[k]
            else:
                data = preload[rng.randrange(PRELOAD_BINARIES)][1]
            rel = f"dist/part{b}.wasm" if b else "build/app.wasm"
            files[f"{base}/{rel}"] = data
            blobs.append({"path": rel, "sha256": _sha(data), "size": len(data)})
        repos.append({
            "id": rid,
            "relevant": relevant,
            "h1": h1,
            "h2": h2,
            "h3": h3,
            "blobs": blobs,
        })

    index = {sha: sorted(origins, key=lambda o: (o["repo"], o["path"])) for sha, _, origins in preload}
    for sha, data, _ in preload:
        files[f"dataset/{sha}.wasm"] = data
    # The preloaded index in the collector's on-disk form: canonical JSON
    # (sorted keys, two-space indent, trailing newline), entries by hash.
    doc = {
        "schema_version": 1,
        "entries": [{"hash": sha, "origins": index[sha]} for sha in sorted(index)],
        "wat": {"converted": 0, "unconverted": []},
    }
    files["dataset/index.json"] = (
        json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
    ).encode("utf-8")

    origins = {(sha, o["repo"], o["path"]) for sha, os_ in index.items() for o in os_}
    origins_before = len(origins)
    for r in repos:
        for b in r["blobs"]:
            origins.add((b["sha256"], r["id"], b["path"]))
    new_hashes = {b["sha256"] for r in repos for b in r["blobs"]} - set(index)
    truth = {
        "repos": repos,
        "stored_before": len(index),
        "stored_after": len(index) + len(new_hashes),
        "origins_before": origins_before,
        "origins_after": len(origins),
    }
    return files, truth


GENERATORS = {
    "fuzz-parse": gen_fuzz_parse,
    "analyze-flat": gen_analyze_flat,
    "analyze-branchy": gen_analyze_branchy,
    "curate": gen_curate,
}


def generate(workload: str, seed: int):
    """Files and truth for one workload; the same seed gives the same bytes."""
    files, truth = GENERATORS[workload](seed)
    truth["workload"] = workload
    truth["seed"] = seed
    return files, json.dumps(truth, sort_keys=True, indent=1).encode()
