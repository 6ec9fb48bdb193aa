"""The four benchmark workloads.

Each workload has three steps, run by `worker.py` in a fresh interpreter:

* `imports()` imports the maninalg modules it needs (timed as set-up);
* `setup(mods, seed)` builds the generated inputs from the seed: parameter
  values, parameter matrices and idempotents (timed as set-up);
* `run(mods, inputs, checks, item)` is one pass.  It is a list of items run
  back to back; `item(trace_id, fn)` runs and times one of them (under its
  own trace id when traced).  Every output is checked exactly, and every
  workload carries negative controls that must be rejected.

Why these four: see `bench/METRICS.md`.
"""

from __future__ import annotations

import importlib
import itertools
import random
from fractions import Fraction
from functools import partial
from types import SimpleNamespace

import expected

# Parameter values of one coefficient height: the cost of exact elimination
# moves with the height, so the seed varies signs and inversions only.
POOL = (Fraction(2), Fraction(-2), Fraction(1, 2), Fraction(-1, 2))


class Checks:
    """Counts exact checks; a failed or raising check is recorded by name."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def expect(self, name, ok):
        self.attempted += 1
        if ok is not True:
            self.failures.append(name)

    def reject(self, name, accepted):
        """A negative control: `accepted` must be False."""
        self.expect(f"negative:{name}", accepted is False)

    def guard(self, name, fn):
        """Run fn; an exception (BudgetExceeded included) is one failure."""
        try:
            return fn()
        except Exception as exc:  # noqa: BLE001 - recorded as a failed check
            self.attempted += 1
            self.failures.append(f"{name}: {type(exc).__name__}: {exc}")
            return None


def _import(*names):
    return SimpleNamespace(**{n: importlib.import_module(f"maninalg.{n}") for n in names})


def parameter_matrix(n, rng):
    """n x n parameter matrix: q_ij from POOL above the diagonal, q_ji = 1/q_ij."""
    rows = [[Fraction(1)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rng.choice(POOL)
            rows[j][i] = 1 / rows[i][j]
    return rows


# ---------------------------------------------------------------------------
# suite_all
# ---------------------------------------------------------------------------

class SuiteAll:
    """`suites.run_suite("all")`, the battery behind `verify-suite --suite all`.

    The manifest fixes every input, so the seed is recorded but changes
    nothing.
    """

    name = "suite_all"

    def imports(self):
        return _import("suites")

    def setup(self, mods, seed):
        return {}

    def run(self, mods, inputs, checks, item):
        suites = mods.suites
        saved = {name: list(entries) for name, entries in suites.SUITES.items()}
        for entries in suites.SUITES.values():
            for i, (item_id, fn) in enumerate(entries):
                entries[i] = (item_id, lambda f=fn, t=item_id: item(t, f))
        try:
            results = checks.guard("suite_all", lambda: suites.run_suite("all"))
        finally:
            for name, entries in saved.items():
                suites.SUITES[name][:] = entries
        if results is None:
            return
        checks.expect("suite_all.item_ids", [r[0] for r in results] == expected.SUITE_ITEMS)
        for item_id, ok, _detail in results:
            checks.expect(item_id, ok)


# ---------------------------------------------------------------------------
# pairing_ladder
# ---------------------------------------------------------------------------

class PairingLadder:
    """Fixed rungs of the four pairing routes and verify_axioms, above the
    sizes the suite uses, each cross-checked exactly against another route,
    a closed form or the defining conditions."""

    name = "pairing_ladder"

    def imports(self):
        return _import("idempotents", "pairing", "tensor")

    def setup(self, mods, seed):
        rng = random.Random(seed)
        idem = mods.idempotents
        q = rng.choice(POOL)
        qhat = parameter_matrix(3, rng)
        return {
            "q": q, "qhat": qhat,
            "hecke2": idem.hecke_minus(2, q), "hecke3": idem.hecke_minus(3, q),
            "hecke2_neg": idem.hecke_minus(2, -q),
            "symplectic4": idem.symplectic_idempotent(4),
            "aqhat3": idem.parameterized_antisymmetrizer(qhat),
        }

    def run(self, mods, inputs, checks, item):
        # A rung is a generator; each step up to its next `yield` is timed as
        # its own item "<rung>.<step>", so that items stay short (see
        # worker.SpeedClock).  guard() returns None when a step raised.
        for rung, fn in self.rungs(mods, inputs, checks):
            steps = fn()
            for i in itertools.count():
                out = item(f"{rung}.{i}",
                           lambda r=rung: checks.guard(r, lambda: next(steps, False)))
                if not out:
                    break

    def rungs(self, mods, x, checks):
        P, idem, T = mods.pairing, mods.idempotents, mods.tensor
        q = x["q"]

        def same(name, a, b):
            checks.expect(name, isinstance(a, P.PairingOperator)
                          and isinstance(b, P.PairingOperator)
                          and a.operator == b.operator)

        def annihilated(op, E, k, rank):
            """op has the given trace and every adjacent copy of E kills it
            from both sides (with idempotency this would characterize it)."""
            if op.trace() != rank:
                return False
            for a in range(1, k):
                e = T.embed(E, k, a)
                if not (e * op).is_zero() or not (op * e).is_zero():
                    return False
            return True

        def generic_vs_hecke_n3_k4():
            g = P.generic_pairing(x["hecke3"], 4, "S")
            yield True
            h = P.hecke_pairing(q, 3, 4, "S")
            same("generic_vs_hecke_n3_k4", g, h)
            checks.expect("generic_vs_hecke_n3_k4.trace", h.operator.trace() == 15)

        def hecke_n4_k4():
            h = P.hecke_pairing(q, 4, 4, "A")
            yield True
            closed = P.closed_form_multiparam(idem.uniform_parameter_matrix(4, q), 4, "A")
            G = P.hecke_basis_change(4, 4, q)
            checks.expect("hecke_n4_k4.transport", G * h.operator == closed.operator)
            checks.expect("hecke_n4_k4.trace", h.operator.trace() == 1)

        def hecke_n3_k5():
            h = P.hecke_pairing(q, 3, 5, "S")
            yield True
            checks.expect("hecke_n3_k5.annihilated",
                          annihilated(h.operator, x["hecke3"], 5, 21))

        def brauer_so_n3_k4():
            b = P.brauer_pairing("so", 3, 4)
            yield True
            checks.expect("brauer_so_n3_k4.axioms", P.verify_axioms(b)["pass"])
            checks.expect("brauer_so_n3_k4.trace",
                          b.operator.trace() == expected.orthogonal_dim(3, 4))

        def brauer_sp_n4_k3():
            b = P.brauer_pairing("sp", 4, 3)
            yield True
            g = P.generic_pairing(x["symplectic4"], 3, "A")
            same("brauer_sp_n4_k3.generic", b, g)
            checks.expect("brauer_sp_n4_k3.trace",
                          b.operator.trace() == expected.symplectic_dim(4, 3))

        def group_aqhat3_k4():
            g = P.group_average(x["aqhat3"], 4, "S")
            yield True
            same("group_aqhat3_k4.closed_form", g,
                 P.closed_form_multiparam(x["qhat"], 4, "S"))

        def generic_vs_hecke_n2_k6():
            g = P.generic_pairing(x["hecke2"], 6, "S")
            yield True
            h = P.hecke_pairing(q, 2, 6, "S")
            same("generic_vs_hecke_n2_k6", g, h)
            checks.expect("generic_vs_hecke_n2_k6.trace", h.operator.trace() == 7)

        def negative_controls():
            s3 = P.hecke_pairing(q, 2, 3, "S")
            checks.reject("corrupted_axioms", P.verify_axioms(P.corrupt(s3))["pass"])
            checks.reject("corrupted_annihilated",
                          annihilated(P.corrupt(s3, 0, 1).operator, x["hecke2"], 3, 4))
            other = P.generic_pairing(x["hecke2_neg"], 3, "S")
            checks.reject("other_q_agrees", other.operator == s3.operator)
            yield True

        return [(f.__name__, f) for f in (
            generic_vs_hecke_n3_k4, hecke_n4_k4, hecke_n3_k5, brauer_so_n3_k4,
            brauer_sp_n4_k3, group_aqhat3_k4, generic_vs_hecke_n2_k6,
            negative_controls)]


# The rung names above, which name the per-rung metrics in BENCHMARK.json.
RUNGS = ("generic_vs_hecke_n3_k4", "hecke_n4_k4", "hecke_n3_k5", "brauer_so_n3_k4",
         "brauer_sp_n4_k3", "group_aqhat3_k4", "generic_vs_hecke_n2_k6")


# ---------------------------------------------------------------------------
# graded_dims
# ---------------------------------------------------------------------------

class GradedDims:
    """`quadratic.graded_dimension` for all four variants over a fixed set of
    families, with components up to the default 4096-word budget."""

    name = "graded_dims"

    def imports(self):
        return _import("idempotents", "quadratic", "tensor")

    def setup(self, mods, seed):
        rng = random.Random(seed)
        idem = mods.idempotents
        q = rng.choice(POOL)
        return {
            "families": [
                ("hecke_n4_k6", idem.hecke_minus(4, q), 6, expected.quantum_space_dims(4, 6)),
                ("hecke_n8_k4", idem.hecke_minus(8, q), 4, expected.quantum_space_dims(8, 4)),
                ("orthogonal_n4_k6", idem.orthogonal_idempotent(4), 6, None),
                ("symplectic_n8_k4", idem.symplectic_idempotent(8), 4, None),
                ("lie_sl2_k6", idem.lie_idempotent(idem.sl2_brackets(), 3), 6, None),
                ("fourparam_2_2_2_1_k7", idem.fourparam_idempotent(2, 2, 2, 1), 7, None),
            ],
            "hecke3": idem.hecke_minus(3, q),
        }

    def run(self, mods, inputs, checks, item):
        Quad = mods.quadratic
        closed = {"orthogonal_n4_k6": ("X", expected.orthogonal_dim(4, 6)),
                  "symplectic_n8_k4": ("Xi", expected.symplectic_dim(8, 4))}

        def dimension(name, E, k, v, want):
            got = Quad.graded_dimension(Quad.QuadAlgebra(E, v), k)
            checks.expect(f"{name}.{v}", got == want[v])

        def negative_controls():
            # One perturbed entry adds a relation, so the dimension must drop.
            E = inputs["hecke3"]
            m = E.matrix.copy()
            m.data[0][1] += 1
            bad = mods.tensor.TensorOperator(3, 3, 2, m)
            for v in ("X", "Xstar"):
                got = Quad.graded_dimension(Quad.QuadAlgebra(bad, v), 5)
                checks.reject(f"corrupted_idempotent.{v}", got == 21)

        for name, E, k, want in inputs["families"]:
            want = want or expected.RECORDED_DIMS[name]
            if name in closed:
                variant, value = closed[name]
                checks.expect(f"{name}.closed_form", want[variant] == value)
            for v in expected.VARIANTS:
                item(f"{name}.{v}", lambda a=(name, E, k, v, want):
                     checks.guard(a[0], lambda: dimension(*a)))
        item("negative_controls", lambda: checks.guard("negative_controls", negative_controls))


# ---------------------------------------------------------------------------
# ideal_membership
# ---------------------------------------------------------------------------

class IdealMembership:
    """Identities decided against cached slices of universal-relation ambients:
    the 3x3 multi-parameter U_{qhat,phat} and the 2x3x2 tensor-product
    ambient, whose degree-4 slice spans the whole 20736-word budget."""

    name = "ideal_membership"
    SUBMATRIX_SAMPLE = 160   # seeded 3x3 submatrices checked for the Manin property

    def imports(self):
        return _import("idempotents", "freealg", "ideals", "manin", "minors", "pairing",
                       "permutations")

    def setup(self, mods, seed):
        rng = random.Random(seed)
        idem, F = mods.idempotents, mods.freealg
        qhat3, phat3 = parameter_matrix(3, rng), parameter_matrix(3, rng)
        qhat, phat, rhat = parameter_matrix(2, rng), parameter_matrix(3, rng), parameter_matrix(2, rng)
        wrong_rhat = [[1 / x for x in row] for row in rhat]
        anti = idem.parameterized_antisymmetrizer
        tuples = list(itertools.product((1, 2, 3), repeat=3))
        return {
            "qhat3": qhat3, "phat3": phat3, "qhat": qhat, "phat": phat, "rhat": rhat,
            "A_qhat3": anti(qhat3), "A_phat3": anti(phat3),
            "A_phat3_transposed": anti([list(col) for col in zip(*phat3)]),
            "A_qhat": anti(qhat), "A_phat": anti(phat), "A_rhat": anti(rhat),
            "A_wrong_rhat": anti(wrong_rhat),
            "M3": F.generator_matrix("M", 3, 3),
            "M23": F.generator_matrix("M", 2, 3), "N32": F.generator_matrix("N", 3, 2),
            "sample": [(rng.choice(tuples), rng.choice(tuples))
                       for _ in range(self.SUBMATRIX_SAMPLE)],
        }

    def run(self, mods, inputs, checks, item):
        idem, F, I, Mn, Mi, P = (mods.idempotents, mods.freealg, mods.ideals, mods.manin,
                                 mods.minors, mods.pairing)
        perms = mods.permutations.all_perms
        x = inputs
        st = {}
        restrict = idem.restrict_parameter_matrix
        zero = F.NCPoly.zero()

        def holds(lhs, rhs, ideal):
            return Mi.verify_identity(lhs, rhs, ideal)

        def u33_ambient():
            pair = Mn.ManinPair(x["A_qhat3"], x["A_phat3"])
            st["u33"] = Mn.universal_relations(pair, "M").algebra()
            st["det"] = Mi.det_qhat(x["qhat3"], x["M3"])
            st["perm"] = Mi.perm_qhat(x["phat3"], x["M3"])

        def column_law():
            M, qh, ph, alg, det = x["M3"], x["qhat3"], x["phat3"], st["u33"], st["det"]
            for tau in perms(3):
                lhs = Mi.det_qhat(qh, Mi.col_permuted(M, tau))
                scale = Fraction(tau.sign()) / Mi.inversion_parameter_product(ph, tau)
                checks.expect(f"column_law.{tau.images}", holds(lhs, det.scale(scale), alg))
                if tau.images == (2, 1, 3):
                    checks.reject("column_law_wrong_sign", holds(lhs, det.scale(-scale), alg))

        def conjugation_laws(sigma):
            M, qh, ph, alg = x["M3"], x["qhat3"], x["phat3"], st["u33"]
            det, perm = st["det"], st["perm"]
            for tau in perms(3):
                smt = Mi.row_permuted(Mi.col_permuted(M, tau), sigma)
                f = (Mi.inversion_parameter_product(qh, sigma)
                     / Mi.inversion_parameter_product(ph, tau))
                dl = Mi.det_qhat(idem.conjugate_parameter_matrix(qh, sigma), smt)
                pl = Mi.perm_qhat(idem.conjugate_parameter_matrix(ph, tau), smt)
                tag = f"{sigma.images}{tau.images}"
                checks.expect(f"conjugation.det.{tag}",
                              holds(dl, det.scale(sigma.sign() * tau.sign() * f), alg))
                checks.expect(f"conjugation.perm.{tag}", holds(pl, perm.scale(f), alg))

        def repeated_columns(rows):
            M, qh, alg = x["M3"], x["qhat3"], st["u33"]
            for cols in itertools.product((1, 2, 3), repeat=3):
                d = Mi.det_qhat(restrict(qh, rows), Mn.submatrix(M, rows, cols))
                if len(set(cols)) < 3:
                    checks.expect(f"repeated_column.{rows}{cols}", holds(d, zero, alg))
                elif rows == cols == (1, 2, 3):
                    checks.reject("distinct_columns_vanish", holds(d, zero, alg))

        def submatrix_closure(pairs):
            M, qh, ph, alg = x["M3"], x["qhat3"], x["phat3"], st["u33"]
            anti = idem.parameterized_antisymmetrizer
            for rows, cols in pairs:
                pair = Mn.ManinPair(anti(restrict(qh, rows)), anti(restrict(ph, cols)))
                checks.expect(f"submatrix.{rows}{cols}",
                              Mn.is_manin(pair, Mn.submatrix(M, rows, cols), alg))

        def transposed_parameters():
            wrong = Mn.ManinPair(x["A_qhat3"], x["A_phat3_transposed"])
            checks.reject("transposed_parameters_manin", Mn.is_manin(wrong, x["M3"], st["u33"]))

        def higher_manin(k):
            M, alg = x["M3"], st["u33"]
            a_q = P.closed_form_multiparam(x["qhat3"], k, "A").operator
            a_p = P.closed_form_multiparam(x["phat3"], k, "A").operator
            s_q = P.closed_form_multiparam(x["qhat3"], k, "S").operator
            s_p = P.closed_form_multiparam(x["phat3"], k, "S").operator
            am = Mi.a_minor(M, a_q, k)
            checks.expect(f"higher_manin.A{k}", Mi.verify_matrix_identity(
                am, F.poly_mat_times_scalar(am, a_p.matrix), alg))
            sm = Mi.s_minor(M, s_p, k)
            checks.expect(f"higher_manin.S{k}", Mi.verify_matrix_identity(
                sm, F.scalar_times_poly_mat(s_q.matrix, sm), alg))
            if k == 3:
                checks.reject("higher_manin_wrong_side", Mi.verify_matrix_identity(
                    am, F.poly_mat_times_scalar(am, a_q.matrix), alg))

        def tensor_ambient():
            pair_mn = Mn.ManinPair(x["A_qhat"], x["A_phat"])
            pair_nl = Mn.ManinPair(x["A_phat"], x["A_rhat"])
            uM = Mn.universal_relations(pair_mn, "M")
            uN = Mn.universal_relations(pair_nl, "N")
            polys = (relation_polys(uM) + relation_polys(uN)
                     + Mn.cross_commutators(x["M23"], x["N32"]))
            st["pair_mn"], st["pair_nl"] = pair_mn, pair_nl
            st["tensor"] = I.PresentedAlgebra.from_polys(uM.gens + uN.gens, polys)
            st["K"] = F.poly_mat_mul(x["M23"], x["N32"])

        def relation_polys(uni):
            g = len(uni.gens)
            return [F.NCPoly({(uni.gens[pos // g], uni.gens[pos % g]): c
                              for pos, c in enumerate(row) if c})
                    for row in uni.space.basis.data]

        def cauchy_binet_det(rows):
            Mg, Ng, K, amb = x["M23"], x["N32"], st["K"], st["tensor"]
            middle = list(itertools.combinations((1, 2, 3), 2))
            for cols in itertools.product((1, 2), repeat=2):
                qr = restrict(x["qhat"], rows)
                lhs = Mi.det_qhat(qr, Mn.submatrix(K, rows, cols))
                terms = [Mi.det_qhat(qr, Mn.submatrix(Mg, rows, J))
                         * Mi.det_qhat(restrict(x["phat"], J), Mn.submatrix(Ng, J, cols))
                         for J in middle]
                rhs = sum(terms, zero)
                checks.expect(f"cauchy_binet.det.{rows}{cols}", holds(lhs, rhs, amb))
                if rows == cols == (1, 2):
                    word = Mg[0][0] * Mg[0][1] * Ng[0][0] * Ng[1][0]
                    checks.reject("cauchy_binet_perturbed", holds(lhs, rhs + word, amb))
                    checks.reject("cauchy_binet_truncated",
                                  holds(lhs, sum(terms[:-1], zero), amb))

        def cauchy_binet_perm(rows):
            Mg, Ng, K, amb = x["M23"], x["N32"], st["K"], st["tensor"]
            weak3 = list(itertools.combinations_with_replacement((1, 2, 3), 2))
            stab = mods.permutations.stabilizer_order
            for cols in weak2:
                rr = restrict(x["rhat"], cols)
                lhs = Mi.perm_qhat(rr, Mn.submatrix(K, rows, cols))
                rhs = zero
                for J in weak3:
                    term = (Mi.perm_qhat(restrict(x["phat"], J), Mn.submatrix(Mg, rows, J))
                            * Mi.perm_qhat(rr, Mn.submatrix(Ng, J, cols)))
                    rhs = rhs + term.scale(Fraction(1, stab(J)))
                checks.expect(f"cauchy_binet.perm.{rows}{cols}", holds(lhs, rhs, amb))

        def product_is_manin():
            Mg, Ng, amb = x["M23"], x["N32"], st["tensor"]
            checks.expect("product_is_manin", Mn.product_is_manin(
                st["pair_mn"], st["pair_nl"], Mg, Ng, amb))
            wrong = Mn.ManinPair(x["A_phat"], x["A_wrong_rhat"])
            checks.reject("product_wrong_pair",
                          Mn.product_is_manin(st["pair_mn"], wrong, Mg, Ng, amb))

        # Items are kept well under a second, because each one is rescaled to
        # the speed reference separately (worker.SpeedClock).
        pairs = [(r, c) for r in itertools.product((1, 2, 3), repeat=2)
                 for c in itertools.product((1, 2, 3), repeat=2)] + x["sample"]
        weak2 = list(itertools.combinations_with_replacement((1, 2), 2))
        steps = [("u33.ambient", u33_ambient), ("u33.column_law", column_law)]
        steps += [(f"u33.conjugation_laws.{s.images}", partial(conjugation_laws, s))
                  for s in perms(3)]
        steps += [(f"u33.repeated_columns.{rows}", partial(repeated_columns, rows))
                  for rows in itertools.permutations((1, 2, 3))]
        steps += [(f"u33.submatrix_closure.{i}", partial(submatrix_closure, pairs[i:i + 30]))
                  for i in range(0, len(pairs), 30)]
        steps += [("u33.transposed_parameters", transposed_parameters)]
        steps += [(f"u33.higher_manin.{k}", partial(higher_manin, k)) for k in (2, 3)]
        steps += [("tensor.ambient", tensor_ambient),
                  ("tensor.slice", lambda: st["tensor"].slice(4))]
        steps += [(f"tensor.cauchy_binet_det.{rows}", partial(cauchy_binet_det, rows))
                  for rows in itertools.product((1, 2), repeat=2)]
        steps += [(f"tensor.cauchy_binet_perm.{rows}", partial(cauchy_binet_perm, rows))
                  for rows in weak2]
        steps += [("tensor.product_is_manin", product_is_manin)]
        for name, fn in steps:
            item(name, lambda n=name, f=fn: checks.guard(n, f))


WORKLOADS = {w.name: w for w in (SuiteAll(), PairingLadder(), GradedDims(),
                                  IdealMembership())}
