#!/usr/bin/env python3
"""The determinism matrix: every bit-identity gate is one row of matrix.txt.

    python3 tools/determinism/matrix.py BUILD_DIR   # run the rows for BUILD_DIR's build
    python3 tools/determinism/matrix.py --check     # check the table alone (fast)

A plain build runs every row; a sanitized one (BLAM_SANITIZE in
BUILD_DIR/CMakeCache.txt) runs the rows flagged asan or tsan. Each row runs
in its own temporary directory with BLAM_OUT_DIR=out, so nothing is written
into the worktree. Every file a run leaves there is an artifact, and so is
stdout for a scenario row. A row must match committed files at the repo
root, an earlier row, or a second run of itself, byte for byte. DESIGN.md
section 14.3 describes the rules.
"""
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
COLUMNS = ("name", "run", "env", "flags", "equals")
FLAG = re.compile(r"split|fallback|asan|tsan|(kill|journal)@\d+")
EVENTS_LINE = re.compile(rb"^events executed .*\n", re.M)


class Mismatch(Exception):
    pass


def load_table():
    rows = []
    for n, line in enumerate((HERE / "matrix.txt").read_text().splitlines(), 1):
        if line.strip() and not line.startswith("#"):
            cells = [c.strip() for c in line.split("|")]
            if len(cells) != len(COLUMNS):
                sys.exit(f"matrix.txt:{n}: want {len(COLUMNS)} '|'-separated cells")
            row = {k: v.split() for k, v in zip(COLUMNS, cells)}
            flags = set(row["flags"])
            row.update(name=cells[0], line=n, env=dict(kv.split("=", 1) for kv in row["env"]),
                       builds={"plain"} | (flags & {"asan", "tsan"}),
                       resume=next((f for f in flags if "@" in f), ""))
            rows.append(row)
    return rows


def target_dirs():
    """Every bench/ and examples/ executable target, mapped to its directory."""
    pattern = re.compile(r"^\s*(?:blam_\w+|add_executable)\(\s*(\w+)", re.M)
    return {target: subdir for subdir in ("bench", "examples")
            for target in pattern.findall((ROOT / subdir / "CMakeLists.txt").read_text())}


def check_table(rows):
    """Structural checks only: nothing is built or run."""
    errors, seen, covered, targets = [], {}, set(), target_dirs()
    committed = {p.name for p in ROOT.glob("*.csv") if not p.name.endswith("_nodes.csv")}
    for row in rows:
        where = f"matrix.txt:{row['line']} ({row['name']})"
        first = row["run"][0] if row["run"] else ""
        if not ((HERE / first).is_file() if first.endswith(".cfg") else first in targets):
            errors.append(f"{where}: {first!r} is neither a scenario file here nor a CMake target")
        if row["name"] in seen:
            errors.append(f"{where}: duplicate row name")
        for ref in row["equals"]:
            if (ROOT / ref).is_file():
                covered.add(ref)
            elif len(row["equals"]) > 1 or ref != "self" and not (
                    ref in seen and row["builds"] <= seen[ref]["builds"]):
                errors.append(f"{where}: {ref} is no committed file, self, or earlier row "
                              "run by every build that runs this one")
        says = [f for f in row["flags"] if f in ("split", "fallback")]
        if len(says) != (int(row["env"].get("BLAM_SHARDS", "1")) > 1):
            errors.append(f"{where}: a BLAM_SHARDS>1 row says split or fallback, others neither")
        errors += [f"{where}: unknown flag {f}" for f in row["flags"] if not FLAG.fullmatch(f)]
        seen[row["name"]] = row
    errors += [f"committed {name} is the target of no row" for name in sorted(committed - covered)]
    return errors


def build_kind(build):
    cache = (build / "CMakeCache.txt").read_text()
    sanitize = re.search(r"^BLAM_SANITIZE:\w+=(.*)$", cache, re.M).group(1)
    return "tsan" if "thread" in sanitize else "asan" if sanitize else "plain"


def execute(row, build):
    """Runs the row in a fresh directory; returns the artifacts of every run that must match."""
    with tempfile.TemporaryDirectory(prefix="blam-matrix-") as tmp:
        return run_in(row, build, Path(tmp))


def run_in(row, build, tmp):
    cwd = tmp / "run"
    cwd.mkdir()
    env = {k: v for k, v in os.environ.items() if not k.startswith("BLAM_")}
    env.update(row["env"], BLAM_OUT_DIR="out")
    first, *args = row["run"]
    scenario = first.endswith(".cfg")
    argv = ([str(build / "examples/scenario_runner"), str(HERE / first)] if scenario
            else [str(build / target_dirs()[first] / first)]) + args

    def run(*extra):
        out = subprocess.run(argv + list(extra), cwd=cwd, env=env, capture_output=True)
        err = out.stderr.decode(errors="replace")
        if out.returncode != 0:
            raise Mismatch(f"exit {out.returncode}\n{err[-2000:]}")
        if "[audit]" in err:
            raise Mismatch(f"audit violation on stderr\n{err[-2000:]}")
        if "split" in row["flags"] and "running serial" in err:
            raise Mismatch("requested shards but ran serial")
        if "fallback" in row["flags"] and "running serial" not in err:
            raise Mismatch("no 'running serial' on stderr: the fallback was not taken")
        files = {str(p.relative_to(cwd)): p.read_bytes() for p in cwd.rglob("*") if p.is_file()}
        if scenario:
            files["stdout"] = out.stdout
        return files

    kind, _, k = row["resume"].partition("@")
    if kind == "kill":
        env["BLAM_CHECKPOINT_DIR"] = str(tmp)
        run("--abort-at-epoch", k)
        return [run("--resume")]
    if kind == "journal":
        journal = tmp / "journal"
        env["BLAM_JOURNAL"] = str(journal)
        results = [run()]
        lines = journal.read_text().splitlines(keepends=True)
        if len(lines) <= int(k):
            raise Mismatch(f"the journal has {len(lines)} lines, so cutting it to {k} tests nothing")
        journal.write_text("".join(lines[: int(k)]))
        for _ in range(2):  # the cut journal reruns the missing cells, the full one none
            results.append(run())
            if len(journal.read_text().splitlines()) != len(lines):
                raise Mismatch(f"the journal does not hold its {len(lines)} lines after a rerun")
        return results
    return [run()]


def compare(got, want, what, strip_events):
    for name in sorted(set(got) | set(want)):
        if name not in got or name not in want:
            raise Mismatch(f"{name}: {'missing' if name not in got else 'extra'} vs {what}")
        a, b = got[name], want[name]
        if name == "stdout" and strip_events:
            a, b = EVENTS_LINE.sub(b"", a), EVENTS_LINE.sub(b"", b)
        if a != b:
            at = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
            raise Mismatch(f"{name}: differs from {what} at byte {at}")


def check_row(row, results, done, build):
    committed = [r for r in row["equals"] if (ROOT / r).is_file()]
    for got in results:
        if committed:
            names = {Path(n).name: n for n in got}
            stray = {n for n in names if n.endswith(".csv") and (ROOT / n).is_file()}
            if stray - set(committed):
                raise Mismatch(f"writes committed {sorted(stray - set(committed))}, unlisted")
            for name in committed:
                if name not in names:
                    raise Mismatch(f"{name}: not written")
                compare({name: got[names[name]]}, {name: (ROOT / name).read_bytes()},
                        "the committed file", False)
        elif row["equals"] == ["self"]:
            compare(got, execute(row, build)[0], "a second run", False)
        elif row["equals"]:
            ref = row["equals"][0]
            if ref not in done:
                raise Mismatch(f"its reference row {ref} failed")
            compare(got, done[ref], f"row {ref}", True)


def main(argv):
    rows = load_table()
    if argv == ["--check"]:
        errors = check_table(rows)
        print("\n".join(errors) or f"matrix.txt: {len(rows)} rows ok")
        return 1 if errors else 0
    if len(argv) != 1:
        sys.exit(__doc__)
    build = Path(argv[0]).resolve()
    kind = build_kind(build)
    chosen = [r for r in rows if kind in r["builds"]]
    print(f"{len(chosen)} rows for the {kind} build in {build}", flush=True)
    done, failed, start = {}, [], time.monotonic()
    for row in chosen:
        t0 = time.monotonic()
        try:
            results = execute(row, build)
            check_row(row, results, done, build)
            done[row["name"]] = results[-1]
            print(f"ok    {row['name']} ({time.monotonic() - t0:.1f} s)", flush=True)
        except Mismatch as e:
            failed.append(row["name"])
            print(f"FAIL  {row['name']}: {e}", flush=True)
    print(f"{len(chosen) - len(failed)}/{len(chosen)} rows ok in {time.monotonic() - start:.0f} s"
          + (f"; failed: {' '.join(failed)}" if failed else ""))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
