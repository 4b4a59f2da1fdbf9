"""Magic-set rewriting: demand-driven evaluation of PathLog queries.

``Engine(db, program).run()`` materialises *every* derivable fact before
a query filters out the few the user asked for.  This module implements
the standard goal-directed fix: given a flattened query conjunction and
a normalized program, :func:`rewrite_for_query` computes boundness
**adornments** per derived method (a string like ``bf`` over the
(subject, result) positions, reusing the planner's boundness machinery),
emits **magic seed facts** from the query's constants, and guards every
rule that can be rewritten with a magic (demand) atom, so bottom-up
evaluation derives only the facts the query can actually reach.

Magic predicates are ordinary set-valued methods named
``magic$<kind>$<method>$<adornment>`` (the ``$`` keeps them out of the
user's namespace -- the lexer cannot produce it):

- one bound position  -> ``__demand__[magic$... ->> {v}]`` (a global
  anchor object holds the demanded values);
- two bound positions -> ``v_subject[magic$... ->> {v_result}]``.

Because magic facts are plain set facts, the rewritten program runs
through the *existing* semi-naive, planner-driven, columnar pipeline:
magic guards get cardinality estimates, slots, and kernels like any
other atom, and the planner's statistics (magic sets are tiny) schedule
them first of their own accord.

The transformation does **not** rename derived predicates: a guarded
rule variant derives into the original method, so the demanded subset
accumulates under the original name (a superset of each adornment's
relation, still a subset of the full fixpoint -- sound, and complete for
the query by the standard magic-set argument).  Keeping original names
also keeps virtual-object identity stable, so answers are identical to
full evaluation.

Not everything can be demand-driven.  A predicate **falls back** to full
evaluation (all of its rules included unguarded) when it is

- read under negation or inside a superset source (those contexts need
  the *complete* relation -- the stratified semantics would otherwise
  change),
- defined by a rule this rewrite cannot guard (virtual-creating path
  heads, variable or computed methods, parameterised methods, multiple
  defined predicates, superset/negation in the body), or
- a dependency of another full predicate (full evaluation propagates
  down the dependency graph).

Every fallback is recorded with its reason and surfaced through the
EXPLAIN demand section (:class:`DemandReport`).  Rules that are not
reachable from the query at all are dropped.  :class:`DemandEngine`
(also ``Engine.for_query``) packages rewrite + evaluation; ``Query(db,
program=...)`` uses it as the query-over-rules front door.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence, Union

from repro.core.ast import (
    Molecule,
    Name,
    Program,
    Rule,
    ScalarFilter,
    SetEnumFilter,
    Var,
)
from repro.engine.normalize import (
    COMPUTED,
    NormalizedRule,
    Pred,
    _body_reads,
    normalize_program,
    pred_matches,
)
from repro.engine.matching import MAGIC_METHOD_PREFIX
from repro.engine.planner import adorn_positions, adornment
from repro.engine.stratify import full_evaluation_closure, stratify
from repro.errors import StratificationError
from repro.flogic.atoms import (
    Atom,
    ComparisonAtom,
    EnumSupersetAtom,
    IsaAtom,
    NegationAtom,
    ScalarAtom,
    SetMemberAtom,
    SupersetAtom,
    Term,
)
from repro.oodb.database import Database

#: The anchor object that owns single-position magic sets.
ANCHOR = "__demand__"

#: Prefix of every magic method name (``$`` is unlexable: no
#: collisions), shared with the matcher so wildcard method enumeration
#: hides these predicates like system tables.
MAGIC_PREFIX = MAGIC_METHOD_PREFIX


def magic_name(pred: Pred, adornment: str) -> str:
    """The set-method name of the magic predicate for ``pred^adornment``."""
    return f"{MAGIC_PREFIX}{pred[0]}${pred[1]}${adornment}"


def pred_label(pred: Pred) -> str:
    """Human-readable ``kind:name`` form of a predicate."""
    name = pred[1]
    if name is None:
        name = "<var>"
    elif name == COMPUTED:
        name = "<computed>"
    return f"{pred[0]}:{name}"


@dataclass(frozen=True, slots=True)
class MagicRule(NormalizedRule):
    """A synthesized rule (magic rule or seed fact) with its own label."""

    label: str = ""

    def __str__(self) -> str:
        return self.label


@dataclass(frozen=True, slots=True)
class RewrittenRule:
    """One adorned variant of an original rule."""

    variant: NormalizedRule
    source: NormalizedRule
    adornment: str
    magic: str  #: the guarding magic method name


@dataclass
class MagicRewrite:
    """The result of :func:`rewrite_for_query`.

    ``rules`` is the complete program to evaluate (seed facts, magic
    rules, guarded variants, and full-evaluation fallbacks);
    ``adornments`` maps each variant rule (by ``id``) to its per-atom
    adornment labels for the EXPLAIN adornment column.
    """

    rules: list[NormalizedRule] = field(default_factory=list)
    seeds: list[MagicRule] = field(default_factory=list)
    magic_rules: list[MagicRule] = field(default_factory=list)
    rewritten: list[RewrittenRule] = field(default_factory=list)
    #: (rule text, reason) for every included rule evaluated in full.
    fallbacks: list[tuple[str, str]] = field(default_factory=list)
    #: (pred label, adornment) pairs demanded by the query, sorted.
    demanded: list[tuple[str, str]] = field(default_factory=list)
    #: (query atom text, adornment | "full" | "-") in query order.
    query_adornments: list[tuple[str, str]] = field(default_factory=list)
    #: variant rule id -> {atom: adornment label} for EXPLAIN.
    adornments: dict[int, dict[Atom, str]] = field(default_factory=dict)
    #: Rules dropped as unreachable from the query.
    dropped: int = 0
    #: Whether the whole rewrite fell back to the original program.
    total_fallback: bool = False

    def report(self) -> "DemandReport":
        """The renderable demand section for EXPLAIN output."""
        return DemandReport(
            demanded=tuple(self.demanded),
            seeds=tuple(str(seed) for seed in self.seeds),
            rewritten=tuple((entry.adornment, str(entry.source))
                            for entry in self.rewritten),
            fallbacks=tuple(self.fallbacks),
            magic_rules=tuple(str(rule) for rule in self.magic_rules),
            dropped=self.dropped,
            total_fallback=self.total_fallback,
        )


@dataclass(frozen=True, slots=True)
class DemandReport:
    """The EXPLAIN ``demand`` section: what was rewritten, what fell back."""

    demanded: tuple[tuple[str, str], ...]
    seeds: tuple[str, ...]
    rewritten: tuple[tuple[str, str], ...]
    fallbacks: tuple[tuple[str, str], ...]
    magic_rules: tuple[str, ...]
    dropped: int
    total_fallback: bool

    def render(self) -> str:
        lines = ["demand:"]
        if self.total_fallback:
            lines.append("  full evaluation (no rule could be rewritten "
                         "for this query)")
        if self.demanded:
            pairs = ", ".join(f"{label}^{adornment}"
                              for label, adornment in self.demanded)
            lines.append(f"  demanded: {pairs}")
        if self.seeds:
            lines.append(f"  seeds ({len(self.seeds)}):")
            for seed in self.seeds:
                lines.append(f"    {seed}")
        if self.rewritten:
            lines.append(f"  rewritten ({len(self.rewritten)}):")
            for adornment, text in self.rewritten:
                lines.append(f"    [{adornment}] {text}")
        if self.fallbacks:
            lines.append(f"  full evaluation ({len(self.fallbacks)}):")
            for text, reason in self.fallbacks:
                lines.append(f"    {text}  -- {reason}")
        if self.magic_rules:
            lines.append(f"  magic rules ({len(self.magic_rules)}):")
            for text in self.magic_rules:
                lines.append(f"    {text}")
        if self.dropped:
            lines.append(f"  dropped {self.dropped} rule(s) unreachable "
                         f"from the query")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()


# ---------------------------------------------------------------------------
# Atom introspection helpers
# ---------------------------------------------------------------------------

def _read_pred(atom: Atom) -> Pred | None:
    """The predicate a data atom reads, or None for non-data atoms."""
    if isinstance(atom, ScalarAtom):
        return ("scalar", atom.method.value
                if isinstance(atom.method, Name) else None)
    if isinstance(atom, SetMemberAtom):
        return ("set", atom.method.value
                if isinstance(atom.method, Name) else None)
    if isinstance(atom, IsaAtom):
        return ("isa", "isa")
    return None


def _binding_terms(atom: Atom) -> tuple[Term, ...]:
    """Argument-position terms (method excluded) for SIPS connectivity."""
    if isinstance(atom, ScalarAtom):
        return (atom.subject, *atom.args, atom.result)
    if isinstance(atom, SetMemberAtom):
        return (atom.subject, *atom.args, atom.member)
    if isinstance(atom, IsaAtom):
        return (atom.obj, atom.cls)
    return ()


def _magic_guard(pred: Pred, adornment: str, subject: Term,
                 result: Term) -> SetMemberAtom:
    """The magic atom demanding ``pred^adornment`` for the given terms."""
    method = Name(magic_name(pred, adornment))
    if adornment == "bb":
        return SetMemberAtom(method, subject, (), result)
    if adornment == "bf":
        return SetMemberAtom(method, Name(ANCHOR), (), subject)
    if adornment == "fb":
        return SetMemberAtom(method, Name(ANCHOR), (), result)
    raise ValueError(f"no magic guard for adornment {adornment!r}")


def _magic_head(guard: SetMemberAtom) -> Molecule:
    """A head molecule asserting exactly what ``guard`` reads."""
    return Molecule(guard.subject,
                    (SetEnumFilter(guard.method, (), (guard.member,)),))


def _rule_text(head_atom: SetMemberAtom, body: Sequence[Atom]) -> str:
    """Readable ``head <- body.`` text for a synthesized magic rule."""
    if not body:
        return f"{head_atom}."
    return f"{head_atom} <- {', '.join(str(atom) for atom in body)}."


_SELF_NAME = Name("self")


def _universe_reason(atoms: Iterable[Atom],
                     outer: frozenset[Var] = frozenset()) -> str | None:
    """Why a conjunction's meaning depends on *universe membership*.

    Demand evaluation (and even plain rule dropping) shrinks the
    universe relative to the full fixpoint: non-demanded virtual
    objects are never created, and magic bookkeeping adds internal
    objects.  That is invisible to anything reached through predicates
    -- but two atom shapes quantify over the universe itself: superset
    atoms whose subject/source variables may be unbound at evaluation
    time (Definition 4's quantification, including the vacuous-source
    case), and the built-in ``self`` with both positions unbound.  A
    conjunction containing such a shape can only be answered against
    the *full* universe, so the rewrite backs off entirely.
    """
    atoms = tuple(atoms)
    providers: set[Var] = set(outer)
    for atom in atoms:
        if isinstance(atom, (SetMemberAtom, IsaAtom)):
            providers.update(atom.variables())
        elif isinstance(atom, ScalarAtom) and atom.method != _SELF_NAME:
            providers.update(atom.variables())
    for atom in atoms:
        if isinstance(atom, (SupersetAtom, EnumSupersetAtom)):
            needed = set(atom.source_variables())
            if isinstance(atom.subject, Var):
                needed.add(atom.subject)
            if not needed <= providers:
                return "a superset atom may enumerate the universe"
        elif isinstance(atom, ScalarAtom) and atom.method == _SELF_NAME:
            grounded = (isinstance(atom.subject, Name)
                        or atom.subject in providers
                        or isinstance(atom.result, Name)
                        or atom.result in providers)
            if not grounded:
                return "a built-in self read may scan the universe"
        elif isinstance(atom, NegationAtom):
            inner = _universe_reason(atom.inner, frozenset(providers))
            if inner is not None:
                return f"{inner} (under negation)"
    return None


# ---------------------------------------------------------------------------
# Rule classification
# ---------------------------------------------------------------------------

#: Body atoms a guarded variant may contain (no negation / superset:
#: those change meaning under demand filtering and force fallback).
_DATA_ATOMS = (ScalarAtom, SetMemberAtom, IsaAtom, ComparisonAtom)


def _magicable(rule: NormalizedRule) -> tuple[bool, str]:
    """Whether a rule can be guarded; (False, reason) when it cannot."""
    if any(isinstance(atom, NegationAtom) for atom in rule.body):
        return False, "negation in body"
    if any(isinstance(atom, (SupersetAtom, EnumSupersetAtom))
           for atom in rule.body):
        return False, "superset atom in body"
    if len(rule.defines) != 1:
        return False, "head defines several methods"
    (pred,) = rule.defines
    if pred[1] is None:
        return False, "variable method in head"
    if pred[1] == COMPUTED:
        return False, "computed (generic) method in head"
    if pred[0] == "isa":
        return False, "head declares class membership"
    head = rule.head
    if not isinstance(head, Molecule) or len(head.filters) != 1:
        return False, "head is not a single-filter molecule"
    if not isinstance(head.base, (Name, Var)):
        return False, "head subject is a path (virtual object)"
    filt = head.filters[0]
    if isinstance(filt, SetEnumFilter):
        if len(filt.elements) != 1 or filt.args:
            return False, "head set filter is not a simple membership"
        if not isinstance(filt.elements[0], (Name, Var)):
            return False, "head member is not a simple term"
    else:
        if not isinstance(filt, ScalarFilter):
            return False, "head filter kind unsupported"
        if filt.args or not isinstance(filt.result, (Name, Var)):
            return False, "head scalar filter is not a simple assignment"
    if not isinstance(filt.method, Name):
        return False, "head method is not a constant"
    return True, ""


def _head_terms(rule: NormalizedRule) -> tuple[Term, Term]:
    """(subject, result/member) terms of a magicable rule's head."""
    head = rule.head
    assert isinstance(head, Molecule)
    filt = head.filters[0]
    if isinstance(filt, SetEnumFilter):
        return head.base, filt.elements[0]  # type: ignore[return-value]
    return head.base, filt.result  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# The rewrite
# ---------------------------------------------------------------------------

class _Rewriter:
    """One rewrite run: full-closure marking, demand propagation, assembly."""

    def __init__(self, db: Database, rules: list[NormalizedRule],
                 query_atoms: tuple[Atom, ...]) -> None:
        self.db = db
        self.rules = rules
        self.query_atoms = query_atoms
        self._defines = [d for rule in rules for d in rule.defines]
        q_weak, q_strong = _body_reads(query_atoms)
        self.query_weak = q_weak
        self.query_strong = q_strong
        self._magicable = {id(rule): _magicable(rule) for rule in rules}
        #: Accumulated (pred, reason) roots for the full-evaluation closure.
        self._full_roots: list[tuple[Pred, str]] = []
        self.full: dict[Pred, str] = {}
        self._seed_roots()

    # -- derived-predicate helpers -------------------------------------

    def _is_derived(self, pred: Pred) -> bool:
        return any(pred_matches(pred, d) for d in self._defines)

    def _rules_for(self, pred: Pred) -> list[NormalizedRule]:
        return [rule for rule in self.rules
                if any(pred_matches(pred, d) for d in rule.defines)]

    # -- full-evaluation marking ---------------------------------------

    def _seed_roots(self) -> None:
        """Initial full marks: unguardable rules and strong (negation /
        superset-source) reads anywhere in the program or the query."""
        for rule in self.rules:
            ok, reason = self._magicable[id(rule)]
            if not ok:
                for define in rule.defines:
                    self._full_roots.append((define, reason))
            for read in rule.strong_reads:
                self._full_roots.append(
                    (read, "read under negation or a superset source"))
        for read in self.query_strong:
            self._full_roots.append(
                (read, "query reads it under negation or a superset source"))
        self.full = full_evaluation_closure(self.rules, self._full_roots)

    def _note_full(self, pred: Pred, reason: str,
                   new_roots: list[tuple[Pred, str]]) -> None:
        if pred[1] is None:
            # A variable-method read: only a new root when some defined
            # predicate of the kind is not marked yet (else the rewrite
            # loop would never converge).
            if any(define[0] == pred[0] and define[1] is not None
                   and define not in self.full
                   for rule in self.rules for define in rule.defines):
                new_roots.append((pred, reason))
            return
        if pred not in self.full:
            new_roots.append((pred, reason))

    # -- one demand pass ------------------------------------------------

    def demand_pass(self):
        """Propagate demand from the query; returns the pass artifacts.

        May discover predicates that must be evaluated in full (unbound
        reads, parameterised reads, variable-method reads); the caller
        re-runs the closure and this pass until no new marks appear.
        """
        demands: dict[tuple[Pred, str], None] = {}
        new_roots: list[tuple[Pred, str]] = []
        seeds: list[MagicRule] = []
        seed_keys: set = set()
        magic_rules: list[MagicRule] = []
        magic_keys: set = set()
        variants: dict[tuple[int, str], RewrittenRule] = {}
        adornments: dict[int, dict[Atom, str]] = {}
        query_adorn: list[tuple[str, str]] = []
        queue: list[tuple[Pred, str]] = []

        def request(pred: Pred, adorn: str, subject: Term, result: Term,
                    prefix: tuple[Atom, ...]) -> None:
            """Demand ``pred^adorn``, deriving the magic fact from
            ``prefix`` (empty prefix = ground seed from constants)."""
            head_atom = _magic_guard(pred, adorn, subject, result)
            if not prefix:
                key = ("seed", head_atom)
                if key not in seed_keys:
                    seed_keys.add(key)
                    seeds.append(self._seed_rule(head_atom))
            elif head_atom not in prefix:  # skip tautological demand rules
                key = ("rule", head_atom, prefix)
                if key not in magic_keys:
                    magic_keys.add(key)
                    magic_rules.append(self._magic_rule(head_atom, prefix))
            if (pred, adorn) not in demands:
                demands[(pred, adorn)] = None
                queue.append((pred, adorn))

        def visit_read(atom: Atom, bound: set[Var],
                       prefix: tuple[Atom, ...], where: str) -> str:
            """Demand whatever a data atom reads; returns its label."""
            pred = _read_pred(atom)
            adorn = adornment(atom, bound)
            if pred is None or adorn is None:
                return "-"
            if not self._is_derived(pred):
                return adorn
            if pred[1] is None:
                self._note_full(pred, f"variable-method read in {where}",
                                new_roots)
                return "full"
            if pred in self.full:
                return f"{adorn} full"
            if getattr(atom, "args", ()):
                self._note_full(pred, f"parameterised read in {where}",
                                new_roots)
                return "full"
            if "b" not in adorn:
                self._note_full(pred, f"read with no bound position "
                                      f"in {where}", new_roots)
                return "full"
            subject, result = adorn_positions(atom)
            request(pred, adorn, subject, result, prefix)
            return adorn

        # The query conjunction is the demand source: constants seed
        # magic facts directly, prefix-bound variables seed via rules.
        bound: set[Var] = set()
        prefix: list[Atom] = []
        for atom in self.query_atoms:
            label = visit_read(atom, bound, tuple(prefix), "the query")
            query_adorn.append((str(atom), label))
            if isinstance(atom, (ScalarAtom, SetMemberAtom, IsaAtom)):
                bound.update(atom.variables())
                prefix.append(atom)
            elif isinstance(atom, (SupersetAtom, EnumSupersetAtom)):
                bound.update(atom.variables())
                bound.update(atom.source_variables())
                prefix.append(atom)
            # comparisons and negations bind nothing and are left out of
            # seed-rule prefixes (sound: demand only gets broader).

        # Propagate demand through the defining rules.
        position = 0
        while position < len(queue):
            pred, adorn = queue[position]
            position += 1
            if pred in self.full:
                continue
            for rule in self._rules_for(pred):
                key = (id(rule), adorn)
                if key in variants:
                    continue
                entry, atom_adorn = self._adorn_rule(rule, pred, adorn,
                                                     visit_read)
                variants[key] = entry
                adornments[id(entry.variant)] = atom_adorn
        return (demands, new_roots, seeds, magic_rules,
                list(variants.values()), adornments, query_adorn)

    def _adorn_rule(self, rule: NormalizedRule, pred: Pred, adorn: str,
                    visit_read) -> tuple[RewrittenRule, dict[Atom, str]]:
        """Guard one rule for ``pred^adorn`` and walk its body (SIPS)."""
        subject_t, result_t = _head_terms(rule)
        guard = _magic_guard(pred, adorn, subject_t, result_t)
        body = (guard, *rule.body)
        variant = NormalizedRule(
            head=rule.head, body=body, original=rule.original,
            defines=rule.defines,
            weak_reads=rule.weak_reads | {("set", guard.method.value)},
            strong_reads=rule.strong_reads,
        )
        entry = RewrittenRule(variant=variant, source=rule,
                              adornment=adorn, magic=guard.method.value)
        atom_adorn: dict[Atom, str] = {guard: "magic"}
        bound: set[Var] = set()
        for term, flag in zip((subject_t, result_t), adorn):
            if flag == "b" and isinstance(term, Var):
                bound.add(term)
        prefix: list[Atom] = [guard]
        where = f"rule {rule}"
        for atom in self._sips_order(rule.body, bound):
            label = visit_read(atom, bound, tuple(prefix), where)
            atom_adorn.setdefault(atom, label)
            prefix.append(atom)
            bound.update(atom.variables())
        return entry, atom_adorn

    @staticmethod
    def _sips_order(body: tuple[Atom, ...],
                    bound: set[Var]) -> list[Atom]:
        """Sideways-information-passing order over the body's data atoms.

        Greedy: prefer atoms already connected to the binding (a bound
        variable or a constant at an argument position), then base-like
        selective shapes, then source order.  Comparisons are skipped
        (they bind nothing and never carry demand); magicable rules
        contain no negation or superset atoms.
        """
        remaining = [atom for atom in body
                     if isinstance(atom, (ScalarAtom, SetMemberAtom,
                                          IsaAtom))]
        seen = set(bound)
        order: list[Atom] = []
        while remaining:
            best_index = 0
            best_key = None
            for index, atom in enumerate(remaining):
                connected = any(
                    isinstance(term, Name) or term in seen
                    for term in _binding_terms(atom)
                )
                key = (0 if connected else 1, index)
                if best_key is None or key < best_key:
                    best_key = key
                    best_index = index
            atom = remaining.pop(best_index)
            order.append(atom)
            seen.update(atom.variables())
        return order

    # -- synthesized rules ----------------------------------------------

    def _seed_rule(self, head_atom: SetMemberAtom) -> MagicRule:
        head = _magic_head(head_atom)
        return MagicRule(
            head=head, body=(), original=Rule(head, ()),
            defines=frozenset({("set", head_atom.method.value)}),
            weak_reads=frozenset(), strong_reads=frozenset(),
            label=_rule_text(head_atom, ()),
        )

    def _magic_rule(self, head_atom: SetMemberAtom,
                    prefix: tuple[Atom, ...]) -> MagicRule:
        head = _magic_head(head_atom)
        weak, strong = _body_reads(prefix)
        return MagicRule(
            head=head, body=prefix, original=Rule(head, ()),
            defines=frozenset({("set", head_atom.method.value)}),
            weak_reads=frozenset(weak), strong_reads=frozenset(strong),
            label=_rule_text(head_atom, prefix),
        )

    # -- assembly --------------------------------------------------------

    def run(self) -> MagicRewrite:
        artifacts = self.demand_pass()
        # Demand passes can discover new full-evaluation marks; re-close
        # and re-run until stable (monotone, bounded by the predicates).
        while artifacts[1]:
            self._full_roots.extend(artifacts[1])
            self.full = full_evaluation_closure(self.rules,
                                                self._full_roots)
            artifacts = self.demand_pass()
        (demands, _, seeds, magic_rules, variants,
         adornments, query_adorn) = artifacts

        included = self._included_rules()
        # Universe-dependent shapes (superset / built-in self reads
        # whose variables may be unbound) observe the universe itself,
        # which demand evaluation -- and even rule dropping -- shrinks:
        # the whole program must run in full, nothing may be dropped.
        reason = _universe_reason(self.query_atoms)
        if reason is None:
            for rule in self.rules:
                if id(rule) not in included:
                    continue
                reason = _universe_reason(rule.body)
                if reason is not None:
                    reason = f"{reason} (in {rule})"
                    break
        if reason is not None:
            out = MagicRewrite(rules=list(self.rules),
                               total_fallback=True,
                               query_adornments=query_adorn)
            out.fallbacks = [(str(rule), reason) for rule in self.rules]
            return out
        out = MagicRewrite()
        out.query_adornments = query_adorn
        # Seeds and magic rules first: within a stratum the engine
        # preserves program order, so demand is visible from the very
        # first firing of the guarded variants.
        out.magic_rules = magic_rules
        out.seeds = seeds
        out.rules.extend(seeds)
        out.rules.extend(magic_rules)
        out.demanded = sorted(
            (pred_label(pred), adorn) for pred, adorn in demands
        )
        by_source: dict[int, list[RewrittenRule]] = {}
        for entry in variants:
            by_source.setdefault(id(entry.source), []).append(entry)
        for rule in self.rules:
            if id(rule) not in included:
                out.dropped += 1
                continue
            ok, reason = self._magicable[id(rule)]
            if not ok:
                out.rules.append(rule)
                out.fallbacks.append((str(rule), reason))
                continue
            (pred,) = rule.defines
            if pred in self.full:
                out.rules.append(rule)
                out.fallbacks.append((str(rule), self.full[pred]))
                continue
            entries = by_source.get(id(rule))
            if not entries:
                out.rules.append(rule)
                out.fallbacks.append(
                    (str(rule), "needed but no demand computed"))
                continue
            for entry in entries:
                out.rules.append(entry.variant)
                out.rewritten.append(entry)
                out.adornments[id(entry.variant)] = \
                    adornments[id(entry.variant)]
        try:
            stratify(out.rules)
        except StratificationError:
            # The guarded program must never be *less* evaluable than
            # the original: drop the rewrite wholesale.
            kept = [rule for rule in self.rules if id(rule) in included]
            out = MagicRewrite(rules=kept, total_fallback=True,
                               query_adornments=query_adorn)
            out.fallbacks = [(str(rule), "rewrite not stratifiable")
                             for rule in kept]
            out.dropped = len(self.rules) - len(kept)
        return out

    def _included_rules(self) -> set[int]:
        """Rules reachable from the query's reads (others are dropped)."""
        needed: set[Pred] = set(self.query_weak | self.query_strong)
        included: set[int] = set()
        changed = True
        while changed:
            changed = False
            for rule in self.rules:
                if id(rule) in included:
                    continue
                if any(pred_matches(read, define)
                       for read in needed for define in rule.defines):
                    included.add(id(rule))
                    needed |= rule.weak_reads | rule.strong_reads
                    changed = True
        return included


def rewrite_for_query(db: Database, rules: Iterable[NormalizedRule],
                      query_atoms: Iterable[Atom]) -> MagicRewrite:
    """Magic-set rewrite of ``rules`` for one flattened query conjunction.

    Returns the complete demand-driven program (seed facts, magic rules,
    guarded variants, full-evaluation fallbacks) plus the bookkeeping
    the EXPLAIN demand section and :class:`DemandEngine` surface.
    """
    return _Rewriter(db, list(rules), tuple(query_atoms)).run()


# ---------------------------------------------------------------------------
# The demand-driven engine front door
# ---------------------------------------------------------------------------

#: Query inputs :class:`DemandEngine` accepts: PathLog text, flattened
#: atoms, or parsed literals.
QueryLike = Union[str, Sequence]


def query_to_atoms(query: QueryLike) -> tuple[Atom, ...]:
    """Flatten any accepted query form into primitive atoms."""
    if isinstance(query, str):
        from repro.flogic.flatten import flatten_conjunction
        from repro.lang.parser import parse_query

        return flatten_conjunction(parse_query(query))
    items = tuple(query)
    if all(isinstance(item, Atom) for item in items):
        return items
    from repro.flogic.flatten import flatten_conjunction

    return flatten_conjunction(items)


class DemandEngine:
    """Evaluates a program *for one query*: rewrite, then fixpoint.

    The program is rewritten by :func:`rewrite_for_query` so only
    demanded facts are derived.  Everything else -- semi-naive deltas,
    the cost-based planner, columnar kernels (or, with
    ``interpreted=True``, the interpreted oracle) -- is the ordinary
    :class:`~repro.engine.fixpoint.Engine` machinery, which is also
    what evaluates a program in full.
    """

    def __init__(self, db: Database,
                 program: Union[Program, Iterable[Rule],
                                Iterable[NormalizedRule]],
                 query: QueryLike, *,
                 seminaive: bool = True, limits=None,
                 interpreted: bool = False,
                 budget=None) -> None:
        from repro.engine.fixpoint import Engine

        self._db = db
        self.query_atoms = query_to_atoms(query)
        self.rewrite: MagicRewrite = rewrite_for_query(
            db, normalize_program(program), self.query_atoms)
        self._engine = Engine(db, self.rewrite.rules, seminaive=seminaive,
                              limits=limits, interpreted=interpreted,
                              budget=budget)
        self.result: Database | None = None

    @property
    def stats(self):
        """The underlying engine's :class:`EngineStats`."""
        return self._engine.stats

    def maintainer(self, result: Database, base: Database):
        """An incremental maintainer for the demanded result database.

        The rewritten program (seeds, magic rules, guarded variants) is
        maintained exactly like an ordinary one: demand itself is a set
        of derived facts, so base changes grow and shrink it through
        the same delete-and-rederive and insertion passes.  See
        :meth:`repro.engine.fixpoint.Engine.maintainer`.
        """
        return self._engine.maintainer(result, base)

    def run(self) -> Database:
        """Evaluate on demand; returns the result db."""
        result = self._engine.run()
        stats = self._engine.stats
        stats.magic_seeds = len(self.rewrite.seeds)
        stats.rules_rewritten = len(self.rewrite.rewritten)
        stats.rules_fallback = len(self.rewrite.fallbacks)
        self.result = result
        return result

    # -- EXPLAIN surface -------------------------------------------------

    def demand_report(self) -> DemandReport:
        """The demand section."""
        return self.rewrite.report()

    def plan_reports(self):
        """Per-rule plans of the last run, with adornment labels."""
        return self._engine.plan_reports(self.rewrite.adornments)

    def explain(self) -> str:
        """Demand section plus the rule plans of the last run."""
        parts = [self.demand_report().render()]
        parts.extend(plan.render() for plan in self.plan_reports())
        return "\n\n".join(parts)
