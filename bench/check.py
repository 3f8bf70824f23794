"""Output checks against the known answers carried by each op.

The checks parse the rendered JSON the way a user would and share no code
with the program: certificates are re-checked relation by relation with the
small infinite-dihedral arithmetic below, and big integers rendered as
decimal strings are parsed in chunks, so no interpreter setting changes.
"""

from __future__ import annotations

import json
from fractions import Fraction

# Outcomes that assert something false; every other failure is a refusal
# or a crash, counted as failed but not as a wrong answer.
INCORRECT = frozenset({"wrong-exit", "wrong-answer", "bad-witness", "bad-certificate"})


def big_int(value) -> int:
    if isinstance(value, bool):
        raise TypeError("boolean where an integer was expected")
    if isinstance(value, int):
        return value
    text = str(value)
    neg = text.startswith("-")
    digits = text[1:] if neg else text
    if not digits.isdigit():
        raise ValueError(f"not an integer: {text[:40]!r}")
    out = 0
    for i in range(0, len(digits), 1000):
        chunk = digits[i : i + 1000]
        out = out * 10 ** len(chunk) + int(chunk)
    return -out if neg else out


def fraction(value) -> Fraction:
    if isinstance(value, str) and "/" in value:
        p, q = value.split("/")
        return Fraction(big_int(p), big_int(q))
    return Fraction(big_int(value))


# -- infinite dihedral group: (eps, k) stands for s^eps r^k ------------------


def d_mul(x, y):
    return (x[0] ^ y[0], (-x[1] if y[0] else x[1]) + y[1])


def d_inv(x):
    return (x[0], x[1] if x[0] else -x[1])


def d_pow(x, n: int):
    if n < 0:
        return d_pow(d_inv(x), -n)
    if x[0]:
        return x if n % 2 else (0, 0)
    return (0, x[1] * n)


def _element(value):
    if not isinstance(value, list) or len(value) != 2:
        return None
    eps, k = big_int(value[0]), big_int(value[1])
    return (eps, k) if eps in (0, 1) else None


def certificate_holds(phi: dict, relations, derived: dict) -> bool:
    """phi is a homomorphism with finite kernels on the given derived graph:
    every generator maps to an infinite-order rotation (and every dihedral
    reflection to a reflection), and t * img_to * t^-1 = img_from holds
    for every edge, tree letters mapping to the identity when absent."""
    images = {}
    allowed = {f"{r.edge}.t" for r in relations}
    for v, kind in derived.items():
        if kind == "d":
            r, s = _element(phi.get(f"{v}.r")), _element(phi.get(f"{v}.s"))
            if r is None or s is None or r[0] != 0 or r[1] == 0 or s[0] != 1:
                return False
            images[(v, "r")] = r
            allowed.update((f"{v}.r", f"{v}.s"))
        else:
            g = _element(phi.get(f"{v}.1"))
            if g is None or g[0] != 0 or g[1] == 0:
                return False
            images[(v, "1")] = g
            allowed.add(f"{v}.1")
    if set(phi) - allowed:
        return False
    for rel in relations:
        t = _element(phi.get(f"{rel.edge}.t", [0, 0]))
        if t is None:
            return False
        lhs = d_mul(d_mul(t, d_pow(images[(rel.tgt, rel.tgt_gen)], rel.tgt_exp)), d_inv(t))
        if lhs != d_pow(images[(rel.src, rel.src_gen)], rel.src_exp):
            return False
    return True


# -- per-command checks ---------------------------------------------------------


def _witness(w, truth) -> str | None:
    try:
        i, j = big_int(w["i"]), big_int(w["j"])
        ok = (
            i != 0
            and j != 0
            and abs(i) != abs(j)
            and w["transcript"] == ""
            and isinstance(w["a"], str)
            and w["a"]
            and isinstance(w["s"], str)
        )
        if ok and truth.modulus is not None:
            ok = Fraction(abs(j), abs(i)) in (truth.modulus, 1 / truth.modulus)
    except (KeyError, TypeError, ValueError):
        return "bad-witness"
    return None if ok else "bad-witness"


def _certificates(out, classes) -> str | None:
    certs = out.get("certificates")
    if not isinstance(certs, list) or out.get("verified") is not True:
        return "wrong-answer"
    if classes is None:
        return None if certs else "wrong-answer"
    if len(certs) != len(classes):
        return "bad-certificate"
    by_vertices = {frozenset(derived): (rels, derived) for rels, derived in classes}
    for cert in certs:
        phi = cert.get("phi")
        if not isinstance(phi, dict):
            return "bad-certificate"
        vertices = frozenset(k.rsplit(".", 1)[0] for k in phi if not k.endswith(".t"))
        match = by_vertices.get(vertices)
        if match is None or not certificate_holds(phi, *match):
            return "bad-certificate"
    return None


def _verdict(out, truth, parametrize: bool) -> str | None:
    want = "HHG" if truth.hhg else "NotHHG"
    if out.get("status") != want:
        return "wrong-answer"
    if truth.hhg:
        # verdict certifies each edge class; parametrize the whole graph
        if parametrize:
            classes = None if truth.whole is None else [truth.whole]
        else:
            classes = None if truth.classes is None else [c[1:] for c in truth.classes]
        return _certificates(out, classes)
    if out.get("verified") is not True or "witness" not in out:
        return "wrong-answer"
    if not parametrize and out.get("edge") not in truth.edges:
        return "wrong-answer"
    return _witness(out["witness"], truth)


def _balance(out, truth, edge) -> str | None:
    rows = out.get("edges")
    ids = [edge] if edge else truth.edges
    if not isinstance(rows, list) or [r.get("id") for r in rows] != ids:
        return "wrong-answer"
    for row in rows:
        if truth.hhg:
            if row.get("verdict") != "Balanced":
                return "wrong-answer"
            continue
        if row.get("verdict") != "Unbalanced" or not row.get("cycle"):
            return "wrong-answer"
        modulus = abs(fraction(row["modulus"]))
        if modulus == 1 or (truth.modulus is not None and modulus not in (truth.modulus, 1 / truth.modulus)):
            return "wrong-answer"
    return None


def _conjgraph(out, truth, edge) -> str | None:
    members = out.get("members")
    if not isinstance(out.get("class"), int) or not isinstance(members, list):
        return "wrong-answer"
    got = {tuple(m) for m in members}
    if truth.classes is not None:
        want = next((occ for occ, _, _ in truth.classes if (edge, "target") in occ), None)
        return None if got == want else "wrong-answer"
    return None if {(edge, "source"), (edge, "target")} <= got else "wrong-answer"


def _distortion(out, truth, depth: int) -> str | None:
    if truth.hhg:
        return None if out == {"status": "Balanced"} else "wrong-answer"
    bad = _witness(out.get("witness", {}), truth)
    if bad:
        return bad
    i, j = big_int(out["witness"]["i"]), big_int(out["witness"]["j"])
    top = i if abs(i) > abs(j) else j
    table = out.get("table")
    if not isinstance(table, list) or len(table) != depth:
        return "wrong-answer"
    for k, row in enumerate(table, start=1):
        if row.get("k") != k or big_int(row.get("exponent")) != top**k:
            return "wrong-answer"
    return None


def check(op, code: int, text: str) -> str | None:
    """None if the op produced its known answer, else a failure kind."""
    if code not in (0, 2):
        return "internal-error"
    if code != op.exit:
        return "refused" if code == 2 else "wrong-exit"
    try:
        out = json.loads(text)
    except ValueError:
        return "wrong-answer"
    if not isinstance(out, dict):
        return "wrong-answer"
    if code == 2:
        ok = (
            set(out) == {"error", "line", "column"}
            and isinstance(out["error"], str)
            and isinstance(out["line"], int)
            and isinstance(out["column"], int)
        )
        return None if ok else "wrong-answer"
    truth, cmd = op.truth, op.command
    try:
        if cmd == "check":
            ok = out == {"ok": True, "vertices": truth.vertices, "edges": len(truth.edges)}
            return None if ok else "wrong-answer"
        if cmd == "verdict":
            return _verdict(out, truth, parametrize=False)
        if cmd == "parametrize":
            return _verdict(out, truth, parametrize=True)
        if cmd == "witness":
            if truth.hhg:
                return None if out == {"status": "Balanced"} else "wrong-answer"
            if out.get("edge") not in truth.edges:
                return "wrong-answer"
            return _witness(out, truth)
        if cmd == "balance":
            return _balance(out, truth, op.expect.get("edge"))
        if cmd == "conjgraph":
            return _conjgraph(out, truth, op.expect["edge"])
        if cmd == "reduce":
            ok = (
                out.get("input") == op.argv[3]
                and out.get("trivial") is op.expect["trivial"]
                and out.get("reduced") == op.expect["reduced"]
            )
            return None if ok else "wrong-answer"
        if cmd == "distortion":
            return _distortion(out, truth, int(op.argv[3]))
    except (KeyError, TypeError, ValueError, AttributeError):
        return "wrong-answer"
    raise ValueError(f"no check for command {cmd!r}")
