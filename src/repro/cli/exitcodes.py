"""The CLI's exit-code contract, in one place.

Scripts and CI drive ``rajaperf-sim`` and branch on its exit status, so
the codes are API. Every subcommand maps its outcome to one of these
constants; ``tests/test_exit_codes.py`` provokes each one for real, so
the table cannot drift from behavior.

====  =========================================================
code  meaning
====  =========================================================
0     success
1     unclean run (kernel failures recorded, campaign finished)
2     usage error (argparse, invalid fault spec, bad arguments)
3     campaign directory locked by a live campaign
4     degraded (analysis lost sources, or shard-status found
      pending cells with no live lock holder / an inconsistent
      shard map)
5     chaos invariant violation (or self-test failed to detect)
6     job rejected by admission control (quota or queue bound)
7     job id unknown to the campaign service job store
73    worker crash sentinel (a supervised worker died mid-cell)
74    shard orphaned (EOF on a shard's pipe: its coordinator died)
75    job orphaned (EOF on a job runner's pipe: its scheduler died)
77    chaos kill (internal to the chaos harness's child runs)
130   interrupted (SIGINT; 128 + signal number)
====  =========================================================
"""

from __future__ import annotations

OK = 0
UNCLEAN_RUN = 1
USAGE = 2
CAMPAIGN_LOCKED = 3
DEGRADED_ANALYSIS = 4
INVARIANT_VIOLATION = 5
JOB_REJECTED = 6
JOB_NOT_FOUND = 7
WORKER_CRASH = 73
SHARD_ORPHANED = 74
JOB_ORPHANED = 75
CHAOS_KILL = 77
INTERRUPTED = 130
