"""Serialization layer: round-trip :class:`CompileResult` through JSON.

Cached compilation results must outlive the process that produced them, so
everything a :class:`~repro.core.pipeline.CompileResult` holds is flattened
to JSON-compatible data: the benchmark is rendered back to FPCore source
(``FPCore.to_sexpr``), candidate programs to S-expression source
(:func:`~repro.ir.printer.expr_to_sexpr`) and re-parsed with
:func:`~repro.ir.parser.parse_expr` on load, so deserialized frontiers are
real expressions that can be re-scored, re-rendered, or re-simulated.

Floats survive the trip exactly: ``json`` serializes them via ``repr``,
which is shortest-round-trip in Python 3, and sample values are finite by
construction (the sampler rejects non-finite oracle results).
"""

from __future__ import annotations

import re

from ..accuracy.sampler import SampleSet
from ..core.candidates import Candidate, ParetoFrontier
from ..core.pipeline import CompileResult
from ..ir.fpcore import FPCore, parse_fpcore
from ..ir.printer import expr_to_sexpr
from ..ir.parser import parse_expr
from ..targets.target import Target

#: Bump when the serialized layout changes; readers treat a mismatch as a
#: cache invalidation, never as an error.
SCHEMA_VERSION = 1


def candidate_to_dict(candidate: Candidate) -> dict:
    """Flatten one scored candidate to JSON-compatible data."""
    return {
        "program": expr_to_sexpr(candidate.program),
        "cost": candidate.cost,
        "error": candidate.error,
        "point_errors": list(candidate.point_errors),
        "origin": candidate.origin,
    }


def candidate_from_dict(data: dict, known_ops: set[str]) -> Candidate:
    """Rebuild a candidate; the program is re-parsed into a real Expr."""
    return Candidate(
        program=parse_expr(data["program"], known_ops),
        cost=data["cost"],
        error=data["error"],
        point_errors=tuple(data.get("point_errors", ())),
        origin=data.get("origin", ""),
    )


def samples_to_dict(samples: SampleSet) -> dict:
    return {
        "train": samples.train,
        "test": samples.test,
        "acceptance": samples.acceptance,
        "train_exact": samples.train_exact,
        "test_exact": samples.test_exact,
    }


def samples_from_dict(data: dict) -> SampleSet:
    return SampleSet(
        train=data["train"],
        test=data["test"],
        acceptance=data.get("acceptance", 1.0),
        train_exact=data.get("train_exact", []),
        test_exact=data.get("test_exact", []),
    )


def result_to_dict(result: CompileResult) -> dict:
    """Flatten a full compilation result (frontier, input, samples)."""
    return {
        "schema": SCHEMA_VERSION,
        "core": core_to_source(result.core),
        "target": result.target.name,
        "frontier": [candidate_to_dict(c) for c in result.frontier],
        "input": candidate_to_dict(result.input_candidate),
        "samples": samples_to_dict(result.samples),
        "elapsed": result.elapsed,
    }


def result_from_dict(data: dict, target: Target) -> CompileResult:
    """Rebuild a :class:`CompileResult` against a resolved ``target``.

    The caller supplies the target (cache keys already pin its identity);
    programs are parsed with the target's operator names in scope.
    """
    if data.get("schema") != SCHEMA_VERSION:
        raise ValueError(f"unsupported result schema: {data.get('schema')!r}")
    if data["target"] != target.name:
        raise ValueError(
            f"result was compiled for {data['target']!r}, not {target.name!r}"
        )
    known_ops = set(target.operators)
    core = core_from_source(data["core"], known_ops)
    frontier = ParetoFrontier(
        candidate_from_dict(c, known_ops) for c in data["frontier"]
    )
    return CompileResult(
        core=core,
        target=target,
        frontier=frontier,
        input_candidate=candidate_from_dict(data["input"], known_ops),
        samples=samples_from_dict(data["samples"]),
        elapsed=data.get("elapsed", 0.0),
    )


def core_from_source(source: str, known_ops: set[str] | None = None) -> FPCore:
    """Parse one FPCore from source text (inverse of :func:`core_to_source`)."""
    return parse_fpcore(source, known_ops)


#: Names renderable as a bare FPCore symbol (no whitespace, parens, quotes,
#: comments or brackets — anything else would not tokenize back).
_SYMBOL_NAME = re.compile(r'^[^\s()\[\];"]+$')


def core_to_source(core: FPCore) -> str:
    """Render a benchmark as FPCore source that re-parses to the same core.

    ``FPCore.to_sexpr`` mangles names containing spaces (``a b`` -> ``a-b``)
    and emits unparseable output for names with parens or quotes; such
    names are carried in the ``:name "..."`` string property instead,
    which the parser restores verbatim.
    """
    if not core.name or _SYMBOL_NAME.match(core.name):
        return core.to_sexpr()
    renamed = FPCore(
        arguments=core.arguments,
        body=core.body,
        name="",
        precision=core.precision,
        pre=core.pre,
        # The tokenizer has no escape sequences; double quotes cannot
        # survive a string literal, so degrade them to single quotes.
        properties={**core.properties, "name": core.name.replace('"', "'")},
    )
    return renamed.to_sexpr()
