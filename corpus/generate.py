"""Regenerates the shipped proof corpus under corpus/proofs/.

Run from the repository root: python3 corpus/generate.py
"""

import os

from realisability.extraction import (
    ax_defining, ax_exfalso, ax_k, ax_leibniz, ax_peirce, ax_refleq, ax_s,
    ax_univdist, ax_univinst, check_proof, defining_axioms, eq_sym,
    imp_refl, inst_all, print_proof, prove_dne, prove_plus, prove_plus_comm,
    prove_suc_plus, prove_zero_plus,
)
from realisability.syntax import (
    Eq, Fn, Num, TVar, ZERO, bot, parse_formula, print_formula,
)

EQ00 = Eq(Num(0), Num(0))
D = defining_axioms()

PROOFS = {
    "refleq-zero": ax_refleq(Num(0)),
    "refleq-sum": ax_refleq(Fn("+", (Num(3), Num(4)))),
    "peirce-eq": ax_peirce(EQ00, bot()),
    "peirce-bot": ax_peirce(bot(), EQ00),
    "exfalso": ax_exfalso(Eq(Num(5), Num(7))),
    "k-instance": ax_k(EQ00, Eq(Num(1), Num(2))),
    "s-instance": ax_s(EQ00, bot(), Eq(Num(2), Num(2))),
    "imp-refl-bot": imp_refl(bot()),
    "dne": prove_dne(Eq(Num(4), Num(4))),
    "add-zero": ax_defining(D[0]),
    "add-suc": ax_defining(D[1]),
    "mul-zero": ax_defining(D[2]),
    "mul-suc": ax_defining(D[3]),
    "pair-fst": ax_defining(D[4]),
    "pair-snd": ax_defining(D[5]),
    "add-zero-at-9": inst_all(ax_defining(D[0]), Num(9)),
    "univdist-instance": ax_univdist("x", EQ00,
                                     Eq(TVar("x"), TVar("x"))),
    "leibniz-instance": ax_leibniz("x", Eq(TVar("x"), Num(0)),
                                   Fn("+", (Num(0), ZERO)), Num(0)),
    "plus-2-2": prove_plus(2, 2),
    "plus-7-5": prove_plus(7, 5),
    "sym-example": eq_sym(inst_all(ax_defining(D[0]), Num(5))),
    "zero-plus-induction": prove_zero_plus(),
    "suc-plus-induction": prove_suc_plus(),
    "plus-comm": prove_plus_comm(),
}


def main() -> None:
    out_dir = os.path.join(os.path.dirname(__file__), "proofs")
    os.makedirs(out_dir, exist_ok=True)
    for name, proof in sorted(PROOFS.items()):
        c = check_proof(proof)
        path = os.path.join(out_dir, name + ".sexp")
        with open(path, "w") as f:
            f.write(print_proof(proof) + "\n")
        print("%-24s %s" % (name, print_formula(c)))


if __name__ == "__main__":
    main()
