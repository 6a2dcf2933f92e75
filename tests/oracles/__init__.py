"""Exact oracles the fast solvers are checked against, bit for bit.

* :mod:`.madpipe_dp_reference` — the naive recursive MadPipe-DP (§4.2.2);
* :mod:`.onef1b_reference` — the pure-Python 1F1B\\* period search;
* :mod:`.pipedream_reference` — the scalar PipeDream partition DP (§5.1);
* :mod:`.solver_reference` — the scratch-build MILP period bisection;
* :mod:`.bruteforce` — exhaustive contiguous and special-processor search.

They are exponential or deliberately slow, and only the tests and the
hot-path benchmarks (``benchmarks/bench_*_hotpath.py``) import them.
"""
