"""The conjunctive core and the catalog of conflict-transfer operators.

Every rule here is the same two-stage pipeline: multiply the sources
pointwise under intersection (the conjunctive stage), then apply a
transfer operator that decides where mass on model-empty propositions
goes.  The conjunctive stage never collapses conflicting terms, so
distinct partial conflicts such as A&B and A&B|B&C stay separate until
a transfer runs.  The transfers differ only in that routing, so each is
a route from a conflicting term to ``[(target mask, share)]`` that one loop,
``_redistribute``, applies; Dempster's instead drops the conflict.
"""

from __future__ import annotations

from enum import Enum

from .errors import TotalConflictError, ValidationError
from .lattice import Proposition
from .mass import ColumnSums, MassFunction, column_sums


class Rule(str, Enum):
    """Named combination rules: conjunctive core plus a transfer policy."""

    CONJUNCTIVE = "conjunctive"
    DEMPSTER = "dempster"
    SMETS = "smets"
    YAGER = "yager"
    DUBOIS_PRADE = "dubois_prade"
    DSM_CLASSIC = "dsm_classic"
    DSM_HYBRID = "dsm_hybrid"
    SDLI = "sdli"


def conjunctive(a: MassFunction, b: MassFunction) -> MassFunction:
    """Pointwise product combination: mass of X from one operand and Y
    from the other lands on X & Y, with no emptiness collapse.

    Operands may be sources or previously stored products; the result
    keeps its model-empty terms for a transfer to route later.
    """
    if a.model != b.model:
        raise ValidationError("operands use different models")
    masks_b = list(b._masses.items())
    out: dict[int, float] = {}
    for x, mx in a._masses.items():
        for y, my in masks_b:
            z = x & y
            out[z] = out.get(z, 0.0) + mx * my
    return MassFunction._of_masks(a.model, out.items(), allow_conflict=True)


def _union_target(model, p: Proposition) -> int:
    # the union of p's atoms; total ignorance if p is void or that union is empty
    if not p.is_void:
        target = p.atoms_union().bits
        if target & ~model.constrained:
            return target
    return model.frame.full_bits


def _redistribute(result: MassFunction, route, allow_conflict=False) -> MassFunction:
    """Keep the non-conflicting terms and send each conflicting term's mass
    to the ``[(target mask, share)]`` that ``route(term)`` names."""
    model = result.model
    visible = ~model.constrained
    out = {bits: v for bits, v in result._masses.items() if bits & visible}
    for bits, v in result._masses.items():
        if not bits & visible:
            for target, share in route(model._prop(bits)):
                out[target] = out.get(target, 0.0) + v * share
    return MassFunction._of_masks(model, out.items(), allow_conflict)


def transfer_dempster(result: MassFunction) -> MassFunction:
    """Drop conflicting terms and renormalise the survivors."""
    visible = ~result.model.constrained
    kept = [(bits, v) for bits, v in result._masses.items() if bits & visible]
    # Divide by the kept mass itself, not by 1 - k: when k rounds to 1 on
    # long conflicting streams, 1 - k keeps no significant digit.
    total = sum(v for _, v in kept)
    if total <= 0.0:
        k = result.conflict_mass()
        raise TotalConflictError(f"conflict k={k!r}: Dempster combination is undefined")
    kept = [(bits, v / total) for bits, v in kept]
    return MassFunction._of_masks(result.model, kept)


def transfer_smets(result: MassFunction) -> MassFunction:
    """Pool all conflicting mass on the empty proposition (open world)."""
    return _redistribute(result, lambda p: [(0, 1.0)], allow_conflict=True)


def transfer_yager(result: MassFunction) -> MassFunction:
    """Move all conflicting mass to total ignorance."""
    return _redistribute(result, lambda p: [(result.model.frame.full_bits, 1.0)])


def transfer_union(result: MassFunction) -> MassFunction:
    """Move each conflicting term to the union of the atoms it mentions.

    Serves both the Dubois-Prade and the hybrid DSm rules.  Falls back
    to total ignorance when even that union is empty under the model.
    """
    return _redistribute(result, lambda p: [(_union_target(result.model, p), 1.0)])


def transfer_sdli(result: MassFunction, columns: ColumnSums | None) -> MassFunction:
    """Redistribute each conflicting term over its conflict parties,
    proportionally to the parties' accumulated column sums.

    Parties with zero column sum get nothing; if no party has any
    column mass the term falls back to the union transfer.  The column
    sums must cover exactly the sources whose product is ``result``.
    """
    if columns is None:
        raise ValidationError("the sdli transfer needs column sums")
    if columns.model != result.model:
        raise ValidationError("column sums use a different model")

    def route(p):
        if not p.is_void:
            parties = [g.bits for g in p.conflict_parties()]
            weights = [columns.value(g) for g in parties]
            total = sum(weights)
            if total > 0.0:
                return [(g, w / total) for g, w in zip(parties, weights) if w]
        return [(_union_target(result.model, p), 1.0)]

    return _redistribute(result, route)


def sdli2(m1: MassFunction, m2: MassFunction) -> MassFunction:
    """Direct two-source evaluation of the proportional partial-conflict
    rule from its closed formula.

    Each conflicting product m1(X)m2(A) + m1(A)m2(X) with X∩A empty is
    split between A and X in the ratio of their column sums.  Must match
    ``transfer_sdli(conjunctive(m1, m2), column_sums([m1, m2]))`` to
    within 1e-12; the test suite holds the two routes together.
    """
    if m1.model != m2.model:
        raise ValidationError("operands use different models")
    model = m1.model
    focal = sorted(set(m1.focal()) | set(m2.focal()), key=lambda p: p.bits)
    col = {p: m1.mass(p) + m2.mass(p) for p in focal}
    out: dict[Proposition, float] = {}
    for x, mx in m1.items():
        for y, my in m2.items():
            z = x & y
            if not model.is_empty(z):
                out[z] = out.get(z, 0.0) + mx * my
    for a in focal:
        share = 0.0
        for x in focal:
            if model.is_empty(a & x):
                num = m1.mass(x) * m2.mass(a) + m1.mass(a) * m2.mass(x)
                if num:
                    # num > 0 forces both columns > 0, so the denominator
                    # is never zero here
                    share += num / (col[a] + col[x])
        if share:
            out[a] = out.get(a, 0.0) + col[a] * share
    return MassFunction(model, out)


def _no_transfer(result: MassFunction, columns) -> MassFunction:
    # the pre-transfer masses are the decision output; dsm_classic is the
    # conjunctive rule on the free lattice.  Rebuilt, not returned as is:
    # the CLI output carries this second renormalisation, and a snapshot
    # must not share the stored terms.
    return MassFunction._of_masks(result.model, result._masses.items(), allow_conflict=True)


# Each entry calls its transfer through the module global, looked up at
# call time, so that the transfers can be replaced from outside.
_TRANSFERS = {
    Rule.CONJUNCTIVE: _no_transfer,
    Rule.DSM_CLASSIC: _no_transfer,
    Rule.DEMPSTER: lambda r, c: transfer_dempster(r),
    Rule.SMETS: lambda r, c: transfer_smets(r),
    Rule.YAGER: lambda r, c: transfer_yager(r),
    Rule.DUBOIS_PRADE: lambda r, c: transfer_union(r),
    Rule.DSM_HYBRID: lambda r, c: transfer_union(r),
    Rule.SDLI: lambda r, c: transfer_sdli(r, c),
}


def apply_transfer(rule: Rule | str, result: MassFunction,
                   columns: ColumnSums | None = None) -> MassFunction:
    """Apply only the transfer stage of a rule to a stored product."""
    return _TRANSFERS[Rule(rule)](result, columns)


def combine2(rule: Rule | str, m1: MassFunction, m2: MassFunction) -> MassFunction:
    """Combine two sources under a rule: conjunctive stage, then transfer."""
    return apply_transfer(rule, conjunctive(m1, m2), column_sums([m1, m2]))
