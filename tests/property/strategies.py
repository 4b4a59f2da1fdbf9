"""Hypothesis strategies for PathLog ASTs and databases.

The reference strategy builds only *well-formed* references by
construction (Definition 3), tracking scalarity through the recursion:
set-valued sub-references are offered exactly where the definition
allows them.
"""

from __future__ import annotations

import string

from hypothesis import strategies as st

from repro.core.ast import (
    IsaFilter,
    Molecule,
    Name,
    Paren,
    Path,
    Reference,
    ScalarFilter,
    SetEnumFilter,
    SetFilter,
    Var,
)
from repro.oodb.database import Database

#: Small pools keep the chance of joins/collisions high.
NAME_POOL = ("a", "b", "c", "kids", "boss", "color", "m1", "m2")
VALUE_POOL = (1, 2, 30, "red", "x y", "Zed")
VAR_POOL = ("X", "Y", "Z", "M")

#: Values mixing named objects (join keys) with int/string literals.
#: Every stored value is a NamedOid, but the literals never appear as
#: subjects, so columns over them are OID-servable without ever being
#: probe targets -- the shape that separates int-column slots from the
#: boxed fallback in the columnar executor.
MIXED_VALUE_POOL = VALUE_POOL + (7, 0, "blue")

#: Class names reserved for the deep isa chains below (disjoint from
#: the c1..c3 pool ``databases`` already uses).
CHAIN_CLASS_POOL = ("k0", "k1", "k2", "k3", "k4", "k5")

names = st.sampled_from(NAME_POOL).map(Name)
values = st.sampled_from(VALUE_POOL).map(Name)
variables = st.sampled_from(VAR_POOL).map(Var)

#: Arbitrary printable names exercise the quoting path of the printer.
wild_names = st.text(
    alphabet=string.ascii_letters + string.digits + " _\"\\",
    min_size=1, max_size=8,
).map(Name)

simple_scalars = st.one_of(names, values, variables)


def references(max_depth: int = 3, *, allow_variables: bool = True,
               set_valued: bool | None = None) -> st.SearchStrategy[Reference]:
    """Well-formed references; ``set_valued`` constrains the result kind.

    ``None`` means either kind.  With ``allow_variables=False`` the
    references are ground.
    """
    leaf_pool = [names, values] + ([variables] if allow_variables else [])
    leaves = st.one_of(*leaf_pool)

    def extend(children: st.SearchStrategy[Reference]
               ) -> st.SearchStrategy[Reference]:
        scalar_child = children.filter(_is_scalar)
        any_child = children

        scalar_method = st.one_of(
            leaves, scalar_child.map(Paren).filter(_is_scalar_paren)
        )

        paths = st.builds(
            Path,
            base=any_child,
            method=scalar_method,
            args=st.lists(any_child, max_size=2).map(tuple),
            set_valued=st.booleans(),
        )

        scalar_filters = st.builds(
            ScalarFilter,
            method=scalar_method,
            args=st.lists(scalar_child, max_size=1).map(tuple),
            result=scalar_child,
        )
        set_filters = st.builds(
            SetFilter,
            method=scalar_method,
            args=st.lists(scalar_child, max_size=1).map(tuple),
            result=any_child.filter(lambda r: not _is_scalar(r)),
        )
        enum_filters = st.builds(
            SetEnumFilter,
            method=scalar_method,
            args=st.lists(scalar_child, max_size=1).map(tuple),
            elements=st.lists(scalar_child, max_size=2).map(tuple),
        )
        isa_filters = st.builds(
            IsaFilter,
            cls=st.one_of(leaves,
                          scalar_child.map(Paren).filter(_is_scalar_paren)),
        )
        molecules = st.builds(
            Molecule,
            base=any_child,
            filters=st.lists(
                st.one_of(scalar_filters, set_filters, enum_filters),
                max_size=2,
            ).map(tuple),
        )
        isa_molecules = st.builds(
            Molecule, base=any_child,
            filters=isa_filters.map(lambda f: (f,)),
        )
        return st.one_of(children, paths, molecules, isa_molecules,
                         any_child.map(Paren))

    strategy = st.recursive(leaves, extend, max_leaves=max_depth * 4)
    if set_valued is True:
        return strategy.filter(lambda r: not _is_scalar(r))
    if set_valued is False:
        return strategy.filter(_is_scalar)
    return strategy


def _is_scalar(ref: Reference) -> bool:
    from repro.core.scalarity import is_scalar

    return is_scalar(ref)


def _is_scalar_paren(ref: Paren) -> bool:
    from repro.core.scalarity import is_scalar

    return is_scalar(ref)


@st.composite
def databases(draw, max_objects: int = 8) -> Database:
    """Small random databases over the shared name pools: objects with
    classes and scalar and set facts, plus a couple of subclass edges."""
    db = Database()
    objects = draw(st.lists(st.sampled_from(NAME_POOL + ("p1", "p2", "p3")),
                            min_size=1, max_size=max_objects, unique=True))
    class_pool = ("c1", "c2", "c3")
    for obj in objects:
        classes = draw(st.lists(st.sampled_from(class_pool), max_size=2,
                                unique=True))
        scalar_methods = draw(st.lists(st.sampled_from(NAME_POOL),
                                       max_size=2, unique=True))
        scalars = {}
        for method in scalar_methods:
            scalars[method] = draw(st.sampled_from(VALUE_POOL + tuple(objects)))
        set_methods = draw(st.lists(st.sampled_from(NAME_POOL), max_size=2,
                                    unique=True))
        sets = {}
        for method in set_methods:
            sets[method] = draw(st.lists(st.sampled_from(tuple(objects)),
                                         min_size=1, max_size=3,
                                         unique=True))
        db.add_object(obj, classes=classes, scalars=scalars, sets=sets)
    # a couple of subclass edges (avoiding cycles by ordering)
    for low, high in (("c1", "c2"), ("c2", "c3")):
        if draw(st.booleans()):
            db.subclass(low, high)
    return db


@st.composite
def deep_databases(draw, max_objects: int = 8) -> Database:
    """Random databases with a deep isa chain threaded through them.

    Extends :func:`databases` with a subclass chain ``k0 < k1 < ...``
    of random length (3-6 classes, acyclic by construction) and
    attaches a few objects at random depths, so transitive class
    membership must propagate through several hops -- the shape that
    stresses hierarchy-driven kernels and isa filters.
    """
    db = draw(databases(max_objects=max_objects))
    length = draw(st.integers(min_value=3, max_value=len(CHAIN_CLASS_POOL)))
    chain = CHAIN_CLASS_POOL[:length]
    for low, high in zip(chain, chain[1:]):
        db.subclass(low, high)
    members = draw(st.lists(st.sampled_from(NAME_POOL + ("p1", "p2", "p3")),
                            max_size=4, unique=True))
    for name in members:
        db.assert_isa(db.obj(name), db.obj(draw(st.sampled_from(chain))))
    # Optionally bridge the chain into the c1..c3 lattice.
    if draw(st.booleans()):
        db.subclass("c1", chain[0])
    return db


#: One mutation: (op, method name, subject name, value name).  The op
#: pool is retraction-heavy (half the draws remove facts), so applying
#: a sequence exercises surrogate retirement, free-list reuse, and the
#: delete-and-rederive maintenance path rather than pure growth.
mutation_ops = st.tuples(
    st.sampled_from(("retract_scalar", "retract_set",
                     "assert_scalar", "assert_set",
                     "retract_scalar", "retract_set")),
    st.sampled_from(NAME_POOL),
    st.sampled_from(NAME_POOL + ("p1", "p2", "p3")),
    st.sampled_from(MIXED_VALUE_POOL + ("p1", "p2")),
)


def mutation_sequences(min_size: int = 1,
                       max_size: int = 12) -> st.SearchStrategy[list]:
    """Retract-heavy mutation sequences over the shared pools."""
    return st.lists(mutation_ops, min_size=min_size, max_size=max_size)


def apply_mutation(db: Database, op: tuple) -> None:
    """Apply one drawn mutation; scalar conflicts retract-then-assert.

    The scalar table is a partial function, so a drawn assertion that
    conflicts with a stored result models an *update*: the old fact is
    retracted first (both paths are real workloads; raising would just
    discard the example).
    """
    from repro.errors import ScalarConflictError

    kind, method_name, subject_name, value_name = op
    method = db.obj(method_name)
    subject = db.obj(subject_name)
    value = db.obj(value_name)
    if kind == "assert_scalar":
        try:
            db.assert_scalar(method, subject, (), value)
        except ScalarConflictError:
            db.retract_scalar(method, subject, ())
            db.assert_scalar(method, subject, (), value)
    elif kind == "retract_scalar":
        db.retract_scalar(method, subject, ())
    elif kind == "assert_set":
        db.assert_set_member(method, subject, (), value)
    else:
        db.retract_set_member(method, subject, (), value)
