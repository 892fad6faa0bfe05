"""The benchmark's workloads: ``sweep``, ``game`` and ``linkage``.

Each module exposes ``build(pk, seed)``, which makes the workload's inputs
from the seed and returns an object with ``warm_up()`` and
``round_ops(r)``; ``round_ops`` gives the ``Op`` list of round ``r``.
"""
