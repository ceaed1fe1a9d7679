"""The benchmark's workloads.

Each module offers the same four names:

* ``MIN_ROUNDS``: rounds a run repeats at least, so every operation has
  several timings to take the median of;
* ``generate(seed, ctx)``: the fixed list of at least 40 operations of one
  round, made from raw arrays (and, for ``cli``, files) drawn from the seed;
* ``run(op, ctx)``: one operation through the program; the harness times it;
* ``check(op, outcome, memo)``: the problems found in its outputs, as strings.

and may set ``REFERENCE = "process"`` when each operation is a new
interpreter, so that its times are scaled by a reference process, and
``REFERENCE_EVERY``, the operations between two runs of the reference
(``bench/speed.py``).  ``run`` returns something other than ``None``.

An operation carries ``label``, ``transitions`` (realisable transitions it
prices) and ``trials`` (quantum trials it sweeps), the useful units that
the traced run divides recomputation counts by.
"""
