"""The subcommands of the command line, one module each, and what they share.

Each module `toffsim.commands.<name>` holds one subcommand's body as
`run(cfg, seed, rows)`: `cfg` is the resolved configuration, `seed` the master
seed, and `rows` the sink of the CSV table's rows, or None when the report
keeps none, in which case the command builds none.  `run` returns the
results, the CSV header and the checks.  `toffsim.cli` imports a module on
its subcommand's first call, so a process compiles only the body it runs:
`estimate` without numpy, and `noisy_meas` without the purification or
ensemble modules (`distill`, `error_models`), whose readout names it takes
from `ancilla` and `channels`.

This module holds what the CLI and the command modules share: the work
limits, the outcome triples by name and the check list.  It imports only the
standard library.  No command module imports `toffsim.cli`: run as
`python -m toffsim.cli`, that module is `__main__`, and importing it would
compile and run it a second time.  The command modules read the work limits
as attributes of this module at each call, and import the library's
functions inside their bodies, at each call too, so that a name rebound on
its module (by a test, or by a tracer timing it) is the one that runs.
"""

from __future__ import annotations

import itertools
from typing import List

# trials per block of toffoli-verify, distill, exact noisy-meas and the
# decoherent ensemble: bounds the block's arrays; every trial keeps its own
# substream, so reports do not depend on it
_TRIAL_CHUNK = 512
# trials per block of effective noisy-meas: a shot is 3 uniforms, one Philox
# block, so a 512-trial block would be mostly `trial_uniforms`' fixed cost of
# ~0.3 ms a call; 2048 to 8192 measured alike, ~5 ms for 8,000 warm shots
_EFFECTIVE_CHUNK = 4096
# the most doubles one sampled array may hold, 32 MiB
_MAX_BLOCK_DOUBLES = 2**22
# the most readout bits a run may sample, over all its trials: about a minute
_MAX_TRIAL_BITS = 10**8
# noisy-meas limit, checked before anything of size n is allocated: n keeps
# one exact-mode block's uniforms (at most 3n a trial) within
# _MAX_BLOCK_DOUBLES.  Effective mode draws 3 a trial, whatever n, and builds
# two O(n^2) count tables; it keeps the same limit, so that a config is valid
# in one mode exactly when it is in the other
_MAX_CAT_BITS = _MAX_BLOCK_DOUBLES // (3 * _TRIAL_CHUNK)
# the combine attempts one distill tree may make before the run is refused
_TREE_ATTEMPTS = 100_000
# the most expected combine attempts a distill run may sample, over all its
# trials: about 25 s at the slowest rate measured, 8.6 million attempts a
# second where nearly every check passes (alpha3 100), and 5-8 s at the 25-37
# million a second of alpha3 0.5 to 1 (2-vCPU host)
_MAX_COMBINE_ATTEMPTS = 2 * 10**8

# the eight measurement outcome triples, by the name a config gives them
_BRANCHES = {",".join(map(str, b)): b for b in itertools.product((1, -1), repeat=3)}


class _Check:
    """One named pass/fail verification inside a run."""

    def __init__(self):
        self.items: List[dict] = []

    def add(self, name: str, passed: bool, detail: str):
        self.items.append({"name": name, "passed": bool(passed), "detail": detail})

    @property
    def all_passed(self) -> bool:
        return all(item["passed"] for item in self.items)
