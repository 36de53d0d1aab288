"""Where the full (generation-2) collections of a benchmark run land.

Run from the repository root with ``perfbench/run.py``'s own arguments:

    python3 tools/gc_sites.py --workload contacts-sparse --seed 1 --seconds 25

It runs ``perfbench/run.py`` in this process under a ``gc.callbacks`` hook.
After the run's own output it prints one ``gc-site`` line per site, with
the count and the total milliseconds of its collections.  A site is the
innermost ``src/swtvc`` or ``perfbench`` function on the stack when the
collection starts; one made by an explicit ``gc.collect()`` is marked so.
The exit code is the run's.
"""

import gc
import runpy
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
OWN = (str(ROOT / "src" / "swtvc"), str(ROOT / "perfbench"))

count, ms = Counter(), Counter()
now = {"explicit": False, "site": None, "start": 0.0}
collect = gc.collect


def site(frame):
    while frame and not frame.f_code.co_filename.startswith(OWN):
        frame = frame.f_back
    if frame is None:
        return "elsewhere"
    return f"{Path(frame.f_code.co_filename).stem}.{frame.f_code.co_name}"


def hook(phase, info):
    if info["generation"] != 2:
        return
    if phase == "start":
        where = site(sys._getframe(1))
        now["site"] = f"gc.collect() in {where}" if now["explicit"] else where
        now["start"] = perf_counter()
    else:
        count[now["site"]] += 1
        ms[now["site"]] += (perf_counter() - now["start"]) * 1000


def explicit_collect(*args):
    now["explicit"] = True
    try:
        return collect(*args)
    finally:
        now["explicit"] = False


def main():
    sys.argv = [str(RUN), *sys.argv[1:]]
    gc.collect = explicit_collect
    gc.callbacks.append(hook)
    code = 0
    try:
        runpy.run_path(str(RUN), run_name="__main__")
    except SystemExit as exc:
        code = exc.code
    finally:
        gc.callbacks.remove(hook)
        gc.collect = collect
    for where, n in count.most_common():
        print(f"gc-site {n:5d} x {ms[where]:9.1f} ms  {where}")
    return code


if __name__ == "__main__":
    sys.exit(main())
