"""Where the full (generation-2) collections of a benchmark run land.

Run from the repository root with ``perfbench/run.py``'s own arguments:

    python3 tools/gc_sites.py --workload contacts-sparse --seed 1 --seconds 25

It runs ``perfbench/run.py`` in this process under a ``gc.callbacks`` hook.
After the run's own output it prints one ``gc-units`` line, the run's
units (setup repetitions and passes, the warm-up pass included) by group,
then one ``gc-site`` line per site, with the count and the total
milliseconds of its collections and their count in each unit.  A site is
the innermost ``src/swtvc`` or ``perfbench`` function on the stack when the
collection starts; one made by an explicit ``gc.collect()`` is marked so.
A collection's unit is the one ``workloads.Bench.measure`` is running.
The counts per unit are listed in run order, a run of equal counts in one
group as one entry: ``pass 1 x3`` is three passes with one collection
each, and ``outside 2`` counts collections made while no unit ran.  The
exit code is the run's.
"""

import gc
import runpy
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
WORKLOADS = str(ROOT / "perfbench" / "workloads.py")
OWN = (str(ROOT / "src" / "swtvc"), str(ROOT / "perfbench"))

count, ms = Counter(), Counter()
units = {}  # unit id -> group, in run order
per_unit = defaultdict(Counter)  # site -> unit id (None outside units) -> count
now = {"explicit": False, "site": None, "unit": None, "start": 0.0}
collect = gc.collect


def site(frame):
    while frame and not frame.f_code.co_filename.startswith(OWN):
        frame = frame.f_back
    if frame is None:
        return "elsewhere"
    return f"{Path(frame.f_code.co_filename).stem}.{frame.f_code.co_name}"


def unit_of(frame):
    """The id of the unit ``Bench.measure`` runs on the stack, or None; a
    unit first seen is recorded."""
    while frame:
        code = frame.f_code
        if code.co_name == "measure" and code.co_filename == WORKLOADS:
            unit = frame.f_locals["unit"]
            units.setdefault(unit.id, unit.group)
            return unit.id
        frame = frame.f_back
    return None


def hook(phase, info):
    if info["generation"] != 2:
        return
    if phase == "start":
        caller = sys._getframe(1)
        where = site(caller)
        now["site"] = f"gc.collect() in {where}" if now["explicit"] else where
        now["unit"] = unit_of(caller)
        now["start"] = perf_counter()
    else:
        count[now["site"]] += 1
        ms[now["site"]] += (perf_counter() - now["start"]) * 1000
        per_unit[now["site"]][now["unit"]] += 1


def explicit_collect(*args):
    now["explicit"] = True
    try:
        return collect(*args)
    finally:
        now["explicit"] = False


def runs(counts):
    """``group count`` per unit in run order, equal neighbours in one group
    joined as ``group count xN``, then ``outside count`` if any."""
    parts = []  # [group, count, units]
    for uid, group in units.items():
        if parts and parts[-1][:2] == [group, counts[uid]]:
            parts[-1][2] += 1
        else:
            parts.append([group, counts[uid], 1])
    text = [f"{g} {c}" + (f" x{k}" if k > 1 else "") for g, c, k in parts]
    if counts[None]:
        text.append(f"outside {counts[None]}")
    return ", ".join(text)


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
    groups = Counter(units.values())
    print("gc-units " + ", ".join(f"{g} {n}" for g, n in groups.items()))
    for where, n in count.most_common():
        print(f"gc-site {n:5d} x {ms[where]:9.1f} ms  {where}: {runs(per_unit[where])}")
    return code


if __name__ == "__main__":
    sys.exit(main())
