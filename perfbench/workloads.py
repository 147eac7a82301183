"""Workloads of the verification-sweep benchmark.

Each workload is a fixed list of ``capelli verify`` suites run back to back in
one fresh interpreter at jobs=1, exactly as the CLI runs them.
The sweeps are exact and deterministic, so a workload has no random input:
its report bytes are fixed, and the SHA-256 of each suite's ``to_json()`` is
recorded below and checked on every repetition.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    suites: tuple[str, ...]


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        # Objects and routes: ks_poly, reg/sing parts, eigen by route, the
        # oracle solve and square_op; RatFunc normalization dominates it.
        Workload("kscap", ("knop-sahi", "capelli")),
        # Pure Fraction and hypergeom.falling work; never reaches ks_poly,
        # eigen, BiPoly or deligne, so it is the bypass workload for them.
        Workload("identity", ("identity-e", "dougall")),
        # The block model at rational t.
        Workload("deligne", ("deligne",)),
    )
}

# Worker count of the pool pass of a traced run, which runs the workload's
# suites on the verify process pool as ``capelli verify --jobs 2`` does.
POOL_JOBS = 2

# Bounds overrides by name, shared by every workload.  "bench" is the CLI's
# defaults with the three dimensions that dominate sweep time lowered, so that
# a sweep takes 1-2 s instead of 6-15 s and a run holds fifteen or more
# repetitions: on a shared 2-CPU host single default-bounds sweeps varied by
# 15-20% from run to run, and the per-task minimum of run.py is only steady
# with many repetitions of every task.  "smoke" keeps every suite to a
# fraction of a second so that the harness itself can be tested.
BOUNDS: dict[str, dict] = {
    "bench": {"size_max": 5, "psi_n_max": 3, "deligne_size_max": 4},
    "smoke": {
        "k_max": 1,
        "size_max": 2,
        "n_max": 2,
        "psi_n_max": 2,
        "deligne_size_max": 2,
        "minpoly_d_max": 2,
        "a_max": 2,
        "bcd_max": 2,
        "t_list": ["-2", "0", "1/2"],
    },
}

# SHA-256 of ``RunReport.to_json()`` per suite, produced at jobs=1 with the
# params ``capelli verify`` passes, so that ``capelli verify deligne
# --size-max 5 --psi-N-max 3 --deligne-size-max 4 --format json | sha256sum``
# reproduces the "bench" entry for "deligne".  The pool must not change a
# report's bytes, so the same digests pin the jobs=2 reports of the traced
# runs' pool passes.
DIGESTS: dict[str, dict[str, str]] = {
    "bench": {
        "knop-sahi": "51d4b2a413028a74bb14426680e3f7743f8cddb495ccc7dba6ad3e6f9531b508",
        "capelli": "19521ea7fc697057f431aa485eeaf34afb106adc6a774e10bf5999f2bf9e5c02",
        "identity-e": "1dbcfac4a1bb3096cae47d598a173e554c945c7a07bbcc580806b079a83a4cda",
        "dougall": "0b1790f063fdc5a61032dafdde5d66eb55a882f30aebf4a087be4069c9862278",
        "deligne": "3b115632fa82c38e7f6c72caf76d96bef50b2d82655cc9df0171034edd63da15",
    },
    "smoke": {
        "knop-sahi": "0b0db1cf19f2a9dfa9c2bff78913b02f7ecfa3dde0f9614fd41ada1ed3a2affd",
        "capelli": "6b341346b41ed0fcd19a1d6cf7a5cbe65bdd8546584a909f15c52bc331473da1",
        "identity-e": "4a51297ed8d3db8e3c1727360785c008eaed396af3c69233a43b4942d93cadc8",
        "dougall": "c006d5f5e2f1f0e100e6495c26ced32627f951783a8028ad58a80377a36c58b8",
        "deligne": "6901f54430fe9eaa3750b73b01c05424647ca6a93199c96ef39e1fe4cd203c71",
    },
}
