"""Run one bellpart CLI invocation in-process with a span around each layer.

Usage: python3 perfbench/traced_cli.py TRACE_FD ARGV...

The public functions of each bellpart module are wrapped from outside, at
the names the callers actually look up, then ``bellpart.cli.main(ARGV)``
runs as the console script would.  Spans (name, start, end, parent) are
kept in memory; when the CLI returns or raises, they are reduced to
per-layer calls, total and self time, and written as one JSON object to
TRACE_FD.  stdout, stderr and the exit code are those of the plain CLI.
"""

from time import perf_counter

T0 = perf_counter()

import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from array import array  # noqa: E402


class Tracer:
    """Span store and counters of one process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]  # open span indices
        self.name_stack = [-1]  # their name ids
        self.counters: dict[str, int] = {}

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        i = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self.stack[-1])
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        self.stack.append(i)
        self.name_stack.append(nid)
        return i

    def wrap(self, name: str, fn):
        """``fn`` under a span named ``name``.

        A call made while a span of the same name is open (stirling ->
        stirling_d -> stirling2) is one layer crossing, so it gets no span.
        """
        nid = self._id(name)
        name_stack, stack, starts, ends = self.name_stack, self.stack, self.span_start, self.span_end
        open_span, clock = self._open, perf_counter

        def traced(*args, **kwargs):
            if name_stack[-1] == nid:
                return fn(*args, **kwargs)
            i = open_span(nid)
            starts[i] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
                name_stack.pop()

        traced.__wrapped__ = fn
        return traced

    def wrap_generator(self, name: str, counter, genfn):
        """``genfn`` whose every ``next()`` is a span named ``name``.

        ``counter(args)`` names the counter that the yielded items add to.
        """
        nid = self._id(name)

        def traced(*args, **kwargs):
            return self._timed(nid, counter(args), genfn(*args, **kwargs))

        traced.__wrapped__ = genfn
        return traced

    def _timed(self, nid, counter, it):
        stack, name_stack, starts, ends = self.stack, self.name_stack, self.span_start, self.span_end
        open_span, clock = self._open, perf_counter
        count = 0
        try:
            while True:
                i = open_span(nid)
                starts[i] = clock()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    ends[i] = clock()
                    stack.pop()
                    name_stack.pop()
                count += 1
                yield item
        finally:
            self.count(counter, count)

    def count(self, counter: str, amount: int) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def count_max(self, counter: str, value: int) -> None:
        self.counters[counter] = max(self.counters.get(counter, 0), value)

    def layers(self) -> dict:
        """{name: {calls, total_s, self_s}}; self = duration minus child spans."""
        n = len(self.span_name)
        child = [0.0] * n
        dur = [e - s for s, e in zip(self.span_start, self.span_end)]
        for i, parent in enumerate(self.span_parent):
            if parent >= 0:
                child[parent] += dur[i]
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        for i, nid in enumerate(self.span_name):
            rec = out[self.names[nid]]
            rec["calls"] += 1
            rec["total_s"] += dur[i]
            rec["self_s"] += dur[i] - child[i]
        return out


def _counting_kernel(tracer, kernel):
    def extend_weighted_rows(rows, kind, n_max):
        before = len(rows)
        result = kernel(rows, kind, n_max)
        after = len(rows)
        # row r holds r + 1 cells
        tracer.count("kernels.cells", (after * (after + 1) - before * (before + 1)) // 2)
        return result

    return extend_weighted_rows


def _counting_exp_neg_bounds(tracer, fn):
    def exp_neg_bounds(v, terms):
        tracer.count("dobinski.loops", 1)
        tracer.count("dobinski.e_terms", terms)
        return fn(v, terms)

    return exp_neg_bounds


def _counting_dobinski(tracer, fn):
    def dobinski(n, width_target):
        interval = fn(n, width_target)
        bits = max(interval.lo.denominator.bit_length(), interval.hi.denominator.bit_length())
        tracer.count_max("dobinski.endpoint_bits", bits)
        return interval

    return dobinski


def install(tracer: Tracer) -> None:
    """Wrap each layer's public functions where bellpart looks them up."""
    from bellpart import cli, dobinski, partitions, series, triangles

    triangles.extend_weighted_rows = tracer.wrap(
        "kernels", _counting_kernel(tracer, triangles.extend_weighted_rows)
    )

    # stirling/bell are module globals called by cli and by each other, and
    # also held directly by the _STIRLING_FN/_BELL_FN dispatch tables.
    replaced = {}
    for layer, fnames in (
        ("triangles.stirling", ("stirling", "stirling2", "stirling_b", "stirling_d")),
        ("triangles.bell", ("bell", "bell_a", "bell_b", "bell_d")),
        ("triangles.verify_identity", ("verify_identity",)),
    ):
        for fname in fnames:
            original = getattr(triangles, fname)
            replaced[original] = tracer.wrap(layer, original)
            setattr(triangles, fname, replaced[original])
    for table in (triangles._STIRLING_FN, triangles._BELL_FN):
        for key, fn in table.items():
            table[key] = replaced[fn]

    dobinski.exp_neg_bounds = tracer.wrap(
        "dobinski.exp_neg_bounds", _counting_exp_neg_bounds(tracer, dobinski.exp_neg_bounds)
    )
    for fname in ("dobinski_a", "dobinski_b", "dobinski_d"):
        original = getattr(dobinski, fname)
        replaced[original] = tracer.wrap("dobinski.enclose", _counting_dobinski(tracer, original))
        setattr(dobinski, fname, replaced[original])
    for key, (approx, exact) in cli._DOBINSKI_FN.items():
        cli._DOBINSKI_FN[key] = (replaced[approx], replaced[exact])

    for fname in ("egf_coefficients", "egf_stirling_d_column"):
        setattr(series, fname, tracer.wrap(f"series.{fname}", getattr(series, fname)))

    partitions.enum_classical = tracer.wrap_generator(
        "partitions.next", lambda args: "partitions.yielded.classical", partitions.enum_classical
    )
    partitions.enum_signed = tracer.wrap_generator(
        "partitions.next",
        lambda args: f"partitions.yielded.{args[1].value}",
        partitions.enum_signed,
    )
    for fname in ("count_by_pairs", "count_single_positive_zero_block"):
        setattr(partitions, fname, tracer.wrap(f"partitions.{fname}", getattr(partitions, fname)))
    for cls in (partitions.ClassicalSetPartition, partitions.SignedSetPartition):
        for method in ("render_text", "render_json"):
            setattr(cls, method, tracer.wrap("partitions.render", getattr(cls, method)))


def _cache_bytes() -> int:
    from bellpart import triangles

    return sum(
        sys.getsizeof(row) + sum(sys.getsizeof(v) for v in row)
        for rows in (triangles._rows_classical, triangles._rows_b)
        for row in rows
    )


def main() -> int:
    trace_fd = int(sys.argv[1])
    argv = sys.argv[2:]
    sys.argv = ["bellpart", *argv]
    tracer = Tracer()
    cli = tracer.wrap("import", importlib.import_module)("bellpart.cli")
    install(tracer)

    def run_cli():
        try:
            return cli.main(argv)
        finally:
            sys.stdout.flush()

    try:
        return tracer.wrap("cli", run_cli)()
    finally:
        inproc_s = perf_counter() - T0
        tracer.count_max("triangles.cache_bytes", _cache_bytes())
        record = {"inproc_s": inproc_s, "layers": tracer.layers(), "counters": tracer.counters}
        with os.fdopen(trace_fd, "w") as f:
            json.dump(record, f)


if __name__ == "__main__":
    sys.exit(main())
