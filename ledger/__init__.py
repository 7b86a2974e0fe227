"""The performance ledger: this repo's one benchmark (see ledger/README.md).

``BENCHMARK.json`` at the repo root is the contract; ``python3 -m
ledger.run`` is the command.  Nothing here is imported by ``src/repro``
-- the ledger drives the program through its public API and measures it
from outside.
"""
