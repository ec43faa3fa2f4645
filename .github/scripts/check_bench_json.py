#!/usr/bin/env python3
"""Checks the committed BENCH_slot_engine.json against a freshly
regenerated (smoke) run of the slot_engine bench.

Usage:
    SLOT_ENGINE_SMOKE=1 BENCH_JSON_PATH=/tmp/bench_smoke.json \
        cargo bench -p ps-bench --bench slot_engine
    python3 .github/scripts/check_bench_json.py BENCH_slot_engine.json /tmp/bench_smoke.json

Exits non-zero with a message naming the first stale or violated cell.
"""
import json, sys

if len(sys.argv) != 3:
    sys.exit("usage: check_bench_json.py COMMITTED REGENERATED")
committed = json.load(open(sys.argv[1]))
regenerated = json.load(open(sys.argv[2]))

def fail(msg):
    sys.exit(f"BENCH_slot_engine.json: {msg}")

if committed.get("schema_version") != regenerated.get("schema_version"):
    fail("schema_version differs from the bench binary's output")
if committed.get("mode") != "full":
    fail("committed file must come from a full run, not smoke")
if committed.get("config") != regenerated.get("config"):
    fail("config drifted from the bench source — regenerate the file")
tiers = {r["sensors"] for r in committed.get("results", [])}
expected = set(committed["config"]["full_tiers"])
if not expected <= tiers:
    fail(f"missing sensor tiers: {sorted(expected - tiers)}")
for r in committed["results"] + regenerated["results"]:
    if not r.get("identical_selections", False):
        fail(f"tier {r['sensors']}: index changed selections")
    for key in ("indexed_ms_per_slot", "brute_force_ms_per_slot", "speedup"):
        if key not in r:
            fail(f"tier {r['sensors']}: missing {key}")

# Threads grid: the committed full run must cover every
# (scale, threads) cell, and every cell — committed and the
# just-regenerated smoke run — must be bit-identical to its
# scale's threads=1 run.
grid = committed.get("threads", [])
cells = {(r["scale"], r["threads"]) for r in grid}
for scale in committed["config"]["full_threads_grid_scales"]:
    for t in committed["config"]["full_threads_grid"]:
        if (scale, t) not in cells:
            fail(f"missing threads-grid cell ({scale}, {t})")
smoke_threads = {r["threads"] for r in regenerated.get("threads", [])}
if not {1, 2} <= smoke_threads:
    fail("smoke rerun must measure threads 1 and 2")
for r in grid + regenerated.get("threads", []):
    if not r.get("identical_to_1_thread", False):
        fail(f"{r['scale']}@{r['threads']} threads diverged from 1 thread")
    for key in ("ms_per_slot", "speedup_vs_1_thread"):
        if key not in r:
            fail(f"{r['scale']}@{r['threads']}: missing {key}")

# Shards grid (schema v3): the committed full run must cover
# every (scale, tile-grid) federation cell, the smoke rerun
# must have re-measured 1 and 4 shards, and the tile-local
# identity flag — the ps_cluster exactness contract, checked
# explicitly by the bench — must hold in every row.
sgrid = committed.get("shards", [])
scells = {(r["scale"], r["grid"]) for r in sgrid}
for scale in committed["config"]["full_shards_grid_scales"]:
    for g in committed["config"]["full_shards_grid"]:
        if (scale, g) not in scells:
            fail(f"missing shards-grid cell ({scale}, {g}x{g})")
smoke_shards = {r["shards"] for r in regenerated.get("shards", [])}
if not {1, 4} <= smoke_shards:
    fail("smoke rerun must measure 1 and 4 shards")
for r in sgrid + regenerated.get("shards", []):
    if not r.get("tile_local_identical", False):
        fail(f"{r['scale']}@{r['grid']}x{r['grid']}: tile-local identity violated")
    for key in ("ms_per_slot", "welfare_gap_vs_1shard"):
        if key not in r:
            fail(f"{r['scale']}@{r['grid']}x{r['grid']}: missing {key}")
gaps = {f"{r['scale']}@{r['grid']}x{r['grid']}": r["welfare_gap_vs_1shard"]
        for r in sgrid if r["grid"] > 1}

# Streaming grid (schema v4): the committed full run must carry
# a per-scale latency/welfare row for every advertised streaming
# scale, each with the p50/p99 decision-latency cells and an
# online-auction welfare gap within 10% of batch Alg5. The
# smoke rerun must have produced at least one streaming row, so
# a committed file missing the section reads as stale.
stream = committed.get("streaming", [])
sscales = {r["scale"] for r in stream}
expected_stream = set(committed["config"]["full_streaming_scales"])
if not expected_stream <= sscales:
    fail(f"missing streaming rows: {sorted(expected_stream - sscales)}")
if not regenerated.get("streaming"):
    fail("smoke rerun produced no streaming rows — bench is stale")
for r in stream + regenerated["streaming"]:
    for key in ("ms_per_slot", "p50_decision_ticks", "p99_decision_ticks",
                "matched_at_arrival_fraction", "welfare_gap_vs_batch_alg5"):
        if key not in r:
            fail(f"streaming {r['scale']}: missing {key}")
for r in stream:
    if r["welfare_gap_vs_batch_alg5"] > 0.10:
        fail(f"streaming {r['scale']}: online-auction welfare gap "
             f"{r['welfare_gap_vs_batch_alg5']:.3f} exceeds the 10% budget")

# Solver grid (schema v5): the committed full run must carry a
# row for every advertised (scale, scheduler) cell — the exact
# branch-and-bound at city scale plus the LP-certified
# heuristics — each with a measured ms/slot and an
# `optimality_gap` whose welfare actually sits inside its LP
# bound. The smoke rerun must have produced solver rows too, so
# a committed file missing the section reads as stale.
solver = committed.get("solver", [])
svcells = {(r["scale"], r["scheduler"]) for r in solver}
for scale in committed["config"]["full_solver_scales"]:
    for s in committed["config"]["solver_schedulers"]:
        if (scale, s) not in svcells:
            fail(f"missing solver-grid cell ({scale}, {s})")
if not regenerated.get("solver"):
    fail("smoke rerun produced no solver rows — bench is stale")
for r in solver + regenerated["solver"]:
    for key in ("ms_per_slot", "point_welfare", "lp_bound",
                "optimality_gap", "limited_slots"):
        if key not in r:
            fail(f"solver {r['scale']}/{r['scheduler']}: missing {key}")
    # 2e-3 absorbs the 3-decimal rounding of the two cells.
    if r["point_welfare"] > r["lp_bound"] + 2e-3:
        fail(f"solver {r['scale']}/{r['scheduler']}: welfare "
             f"{r['point_welfare']} above its LP bound {r['lp_bound']}")
    if not 0.0 <= r["optimality_gap"] <= 1.0:
        fail(f"solver {r['scale']}/{r['scheduler']}: optimality_gap "
             f"{r['optimality_gap']} is not a valid ratio")
    if r["ms_per_slot"] <= 0.0:
        fail(f"solver {r['scale']}/{r['scheduler']}: no measured ms/slot")
sv_gaps = {f"{r['scale']}/{r['scheduler']}": r["optimality_gap"]
           for r in solver}

# Thread-speedup floor, gated on the recording host's
# parallelism: a 1-core host legitimately measures ~1.0x across
# the whole threads grid (the bit-identity assertions above are
# the meaningful check there), so re-asserting a speedup floor
# against its numbers would always fail. Only when the
# committed file came from a host with >= 2 cores do we require
# that the widest measured cell actually bought wall-clock time.
host_par = committed.get("host_parallelism", 1)
if host_par >= 2:
    for scale in committed["config"]["full_threads_grid_scales"]:
        rows = [r for r in grid if r["scale"] == scale
                and r["threads"] <= host_par]
        best = max(r["speedup_vs_1_thread"] for r in rows)
        if best < 1.1:
            fail(f"threads grid on a {host_par}-way host: {scale} "
                 f"best speedup {best:.2f}x < 1.1x — parallel path regressed")

print("BENCH_slot_engine.json is fresh:",
      f"speedup_at_max_tier={committed['speedup_at_max_tier']}x,",
      f"{len(grid)} threads-grid cells verified identical",
      f"(host_parallelism={host_par}),",
      f"{len(sgrid)} shards-grid cells verified, welfare gaps {gaps},",
      f"{len(stream)} streaming rows within the welfare-gap budget,",
      f"{len(solver)} solver rows with certified gaps {sv_gaps}")
