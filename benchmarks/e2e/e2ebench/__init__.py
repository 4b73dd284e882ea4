"""The repo's one end-to-end benchmark (see ``benchmarks/e2e/README.md``).

Everything here measures the system from outside: workloads are
generated from a seed in the harness process, run through the public
entry points only, and checked against references the harness computes
itself.  Nothing under ``src/`` knows a workload name.
"""

#: Version of the result record written by ``--out`` (bump on any
#: change to its keys, so a number from PR N compares to PR N+5).
SCHEMA = 1
