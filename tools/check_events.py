#!/usr/bin/env python3
"""Validate a cspsim --events-out sweep journal (csp-events-v1 JSONL),
so CI catches a malformed or incoherent journal before csp top renders
it. Works on single-shard journals and on csp merge --events-out merged
journals alike (events are grouped per shard before checking order).

Checks, in order:

  1. Every line parses as a JSON object carrying event (string) and
     t_ns / seq / shard (non-negative integers).
  2. Per shard: the first event is sweep_start with
     schema "csp-events-v1", seq is strictly increasing and t_ns is
     non-decreasing (atomic same-mutex stamping in the writer), and
     there is at most one sweep_start and one sweep_end.
  3. Every event carries the required keys for its type (see
     REQUIRED_BY_EVENT), cell_end's source is cached|simulated, and
     trace_gen/trace_cache digests are non-empty.
  4. Per shard: cell_start/cell_end pair up by cell id — every
     cell_end closes an open cell_start and nothing is left open when
     sweep_end is present.
  5. Per shard: only evict / cache_trim events may follow sweep_end
     (the post-sweep cache trim is the one thing cspsim journals after
     the roll-up).
  6. When sweep_end is present: its cells_owned equals the shard's
     cell_end count and cells_cached / cells_simulated match the
     observed source attribution.

--require-sweep-end additionally fails when any shard's journal has no
sweep_end — CI uses it to assert the sweep ran to completion.

Exit 0 and a one-line summary on success; exit 1 with the first few
violations otherwise.

Usage: python3 tools/check_events.py JOURNAL.jsonl [--require-sweep-end]
"""

import collections
import json
import sys

SCHEMA = "csp-events-v1"

# Keys beyond the envelope (event/t_ns/seq/shard) every instance of an
# event type must carry. Unknown event types are an error: the schema
# is closed so a renamed emitter fails here instead of silently
# vanishing from csp top.
REQUIRED_BY_EVENT = {
    "sweep_start": (
        "schema", "unix_ns", "config_digest", "seed", "scale",
        "placement", "workloads", "prefetchers", "shard_count", "jobs",
        "git_sha",
    ),
    "trace_gen": (
        "workload", "digest", "records", "insts", "accesses",
        "duration_ns", "cached", "worker",
    ),
    "trace_cache": ("workload", "digest", "records", "insts", "worker"),
    "trace_load": ("workload", "status", "duration_ns", "worker"),
    "schedule": ("cells_total", "cells_owned", "insts_owned",
                 "trace_digest"),
    "heartbeat": ("cells_done", "cells_expected", "cells_cached",
                  "insts_done", "insts_total", "insts_per_sec"),
    "cell_start": ("cell", "workload", "prefetcher", "worker"),
    "cell_end": ("cell", "workload", "prefetcher", "worker", "source",
                 "duration_ns", "insts"),
    "sweep_end": (
        "cells_owned", "cells_cached", "cells_simulated",
        "trace_cache_hits", "cache_read_ns", "cache_parse_ns",
        "cache_entry_bytes", "cache_verify_failures", "trace_gen_ns",
        "sim_ns", "stats",
    ),
    "evict": ("entry", "bytes"),
    "cache_trim": ("max_bytes", "scanned_entries", "scanned_bytes",
                   "evicted_entries", "evicted_bytes"),
}

POST_SWEEP_END = {"evict", "cache_trim"}


def check(path, require_sweep_end=False):
    errors = []
    per_shard = collections.defaultdict(list)  # shard -> [(line_no, ev)]
    with open(path, encoding="utf-8") as f:
        for line_no, line in enumerate(f, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            try:
                ev = json.loads(line)
            except json.JSONDecodeError as exc:
                errors.append(f"line {line_no}: not valid JSON: {exc}")
                continue
            if not isinstance(ev, dict):
                errors.append(f"line {line_no}: not a JSON object")
                continue
            if not isinstance(ev.get("event"), str):
                errors.append(f"line {line_no}: missing event name")
                continue
            bad = [k for k in ("t_ns", "seq", "shard")
                   if not isinstance(ev.get(k), int) or ev[k] < 0]
            if bad:
                errors.append(
                    f"line {line_no}: bad envelope field(s) "
                    f"{','.join(bad)}")
                continue
            kind = ev["event"]
            if kind not in REQUIRED_BY_EVENT:
                errors.append(
                    f"line {line_no}: unknown event type {kind!r}")
                continue
            missing = [k for k in REQUIRED_BY_EVENT[kind]
                       if k not in ev]
            if missing:
                errors.append(
                    f"line {line_no}: {kind} missing "
                    f"{','.join(missing)}")
            if kind == "cell_end" and ev.get("source") not in (
                    "cached", "simulated"):
                errors.append(
                    f"line {line_no}: cell_end source must be "
                    f"cached|simulated, got {ev.get('source')!r}")
            if kind in ("trace_gen", "trace_cache") and not ev.get(
                    "digest"):
                errors.append(f"line {line_no}: {kind} empty digest")
            per_shard[ev["shard"]].append((line_no, ev))

    counts = collections.Counter()
    for shard in sorted(per_shard):
        events = per_shard[shard]
        where = f"shard {shard}"
        first_no, first = events[0]
        if first["event"] != "sweep_start":
            errors.append(
                f"{where}: first event is {first['event']!r} "
                f"(line {first_no}), expected sweep_start")
        elif first.get("schema") != SCHEMA:
            errors.append(
                f"{where}: sweep_start schema "
                f"{first.get('schema')!r}, expected {SCHEMA!r}")
        prev_seq, prev_t = -1, 0
        open_cells = {}
        end = None
        ended_at = None
        for line_no, ev in events:
            counts[ev["event"]] += 1
            if ev["seq"] <= prev_seq:
                errors.append(
                    f"line {line_no}: {where} seq {ev['seq']} not "
                    f"strictly increasing (prev {prev_seq})")
            if ev["t_ns"] < prev_t:
                errors.append(
                    f"line {line_no}: {where} t_ns {ev['t_ns']} went "
                    f"backwards (prev {prev_t})")
            prev_seq, prev_t = ev["seq"], ev["t_ns"]
            kind = ev["event"]
            if ended_at is not None and kind not in POST_SWEEP_END:
                errors.append(
                    f"line {line_no}: {where} {kind} after sweep_end "
                    f"(line {ended_at}); only "
                    f"{'/'.join(sorted(POST_SWEEP_END))} may follow")
            if kind == "sweep_start" and ev is not first:
                errors.append(
                    f"line {line_no}: {where} second sweep_start")
            elif kind == "cell_start":
                if ev.get("cell") in open_cells:
                    errors.append(
                        f"line {line_no}: {where} cell "
                        f"{ev.get('cell')} started twice")
                open_cells[ev.get("cell")] = line_no
            elif kind == "cell_end":
                if ev.get("cell") not in open_cells:
                    errors.append(
                        f"line {line_no}: {where} cell_end for cell "
                        f"{ev.get('cell')} without cell_start")
                else:
                    del open_cells[ev.get("cell")]
            elif kind == "sweep_end":
                if end is not None:
                    errors.append(
                        f"line {line_no}: {where} second sweep_end")
                end, ended_at = ev, line_no
        if end is not None:
            if open_cells:
                cells = ",".join(str(c) for c in sorted(
                    open_cells, key=str))
                errors.append(
                    f"{where}: cells {cells} still open at sweep_end")
            done = [ev for _, ev in events if ev["event"] == "cell_end"]
            cached = sum(1 for ev in done
                         if ev.get("source") == "cached")
            for key, have in (
                    ("cells_owned", len(done)),
                    ("cells_cached", cached),
                    ("cells_simulated", len(done) - cached)):
                if end.get(key) != have:
                    errors.append(
                        f"{where}: sweep_end {key}={end.get(key)} but "
                        f"journal shows {have}")
        elif require_sweep_end:
            errors.append(f"{where}: no sweep_end (sweep incomplete?)")

    if not per_shard:
        errors.append("journal has no events")
    return errors, counts, len(per_shard)


def main(argv):
    require_sweep_end = "--require-sweep-end" in argv
    paths = [a for a in argv[1:] if not a.startswith("--")]
    unknown = [a for a in argv[1:]
               if a.startswith("--") and a != "--require-sweep-end"]
    if len(paths) != 1 or unknown:
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    errors, counts, shards = check(paths[0], require_sweep_end)
    if errors:
        for err in errors[:10]:
            print(f"check_events: {err}", file=sys.stderr)
        extra = len(errors) - 10
        if extra > 0:
            print(f"check_events: ... and {extra} more",
                  file=sys.stderr)
        return 1
    total = sum(counts.values())
    top = ", ".join(f"{k}={counts[k]}" for k in sorted(counts))
    print(f"check_events: OK: {paths[0]}: {total} events across "
          f"{shards} shard(s) ({top})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
