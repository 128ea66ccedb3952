"""Independent re-check of quivermod's answers in pure-Python arithmetic.

Nothing here imports numpy or quivermod. Scalars are ints reduced mod p, or
`Fraction`s over Q (p is None). `check(kind, spec, rec)` returns a list of
problems; an empty list means the answer passed. Every check that is not a
recomputation is a known mathematical identity or a planted, known answer.
"""
from __future__ import annotations

import json
from fractions import Fraction


# --- exact arithmetic over F_p (p an int) or Q (p None) ---------------------

def scalar(x, p):
    if p is None:
        return Fraction(x)
    if isinstance(x, int):
        return x % p
    x = Fraction(x)
    return x.numerator * pow(x.denominator, -1, p) % p


def inverse(x, p):
    return 1 / x if p is None else pow(x, -1, p)


def matrix(rows, p):
    return [[scalar(x, p) for x in row] for row in rows]


def matmul(a, b, p, shape=None):
    """a @ b; pass shape = (rows, inner, cols) when a dimension may be 0."""
    rows, inner, cols = shape or (len(a), len(b), len(b[0]))
    out = [[sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(cols)]
           for i in range(rows)]
    return out if p is None else [[x % p for x in row] for row in out]


def identity(n, p):
    one = Fraction(1) if p is None else 1
    return [[one if i == j else 0 * one for j in range(n)] for i in range(n)]


def _eliminate(rows, p):
    """Row echelon form by Gaussian elimination: (rank, determinant factor)."""
    work = [list(r) for r in rows]
    n_rows = len(work)
    n_cols = len(work[0]) if work else 0
    rank, sign, prod = 0, 1, 1
    for c in range(n_cols):
        pivot = next((i for i in range(rank, n_rows) if work[i][c] != 0), None)
        if pivot is None:
            continue
        if pivot != rank:
            work[rank], work[pivot] = work[pivot], work[rank]
            sign = -sign
        inv = inverse(work[rank][c], p)
        prod = prod * work[rank][c] if p is None else prod * work[rank][c] % p
        for i in range(rank + 1, n_rows):
            f = work[i][c] * inv
            if f:
                work[i] = [x - f * y for x, y in zip(work[i], work[rank])]
                if p is not None:
                    work[i] = [x % p for x in work[i]]
        rank += 1
    return rank, sign * prod


def rank(rows, p):
    return _eliminate(rows, p)[0] if rows else 0


def det(mat, p):
    n = len(mat)
    if n == 0:
        return scalar(1, p)
    r, d = _eliminate(mat, p)
    if r < n:
        return scalar(0, p)
    return d if p is None else d % p


def euler(quiver, a, b):
    total = sum(x * y for x, y in zip(a, b))
    for _, src, tgt in quiver["arrows"]:
        total -= a[src - 1] * b[tgt - 1]
    return total


def pairing(theta, a):
    return sum(t * x for t, x in zip(theta, a))


# --- representations -------------------------------------------------------

def rep_matrices(rep):
    p = rep["p"]
    return {aid: matrix(m, p) for aid, m in rep["matrices"].items()}


def path_matrix(quiver, mats, dim, source, arrows, p):
    ends = {aid: (src, tgt) for aid, src, tgt in quiver["arrows"]}
    out = identity(dim[source - 1], p)
    for aid in arrows:
        src, tgt = ends[aid]
        out = matmul(mats[aid], out, p, (dim[tgt - 1], dim[src - 1], dim[source - 1]))
    return out


def evaluate_sigma(quiver, sigma, mats, dim, p):
    """The block matrix of sigma at the representation, built entry by entry."""
    rows = sum(dim[i - 1] for i in sigma["domain"])
    cols = sum(dim[j - 1] for j in sigma["codomain"])
    out = [[scalar(0, p)] * cols for _ in range(rows)]
    r0 = 0
    for pi, i in enumerate(sigma["domain"]):
        c0 = 0
        for qi, j in enumerate(sigma["codomain"]):
            for coeff, source, arrows in sigma["entries"][pi][qi]:
                block = path_matrix(quiver, mats, dim, source, arrows, p)
                c = scalar(coeff, p)
                for r in range(dim[i - 1]):
                    for s in range(dim[j - 1]):
                        out[r0 + r][c0 + s] += c * block[r][s]
            c0 += dim[j - 1]
        r0 += dim[i - 1]
    return out if p is None else [[x % p for x in row] for row in out]


def act(quiver, g, mats, p):
    """Base change: arrow i -> j becomes g_j M_a g_i^-1."""
    inverses = [invert(x, p) for x in g]
    return {aid: matmul(matmul(g[tgt - 1], mats[aid], p), inverses[src - 1], p)
            for aid, src, tgt in quiver["arrows"]}


def invert(mat, p):
    n = len(mat)
    aug = [list(row) + ident for row, ident in zip(mat, identity(n, p))]
    for c in range(n):
        pivot = next(i for i in range(c, n) if aug[i][c] != 0)
        aug[c], aug[pivot] = aug[pivot], aug[c]
        inv = inverse(aug[c][c], p)
        aug[c] = [x * inv for x in aug[c]]
        for i in range(n):
            if i != c and aug[i][c]:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[c])]
        if p is not None:
            aug = [[x % p for x in row] for row in aug]
    return [row[n:] for row in aug]


# --- the checks -------------------------------------------------------------

def _witness_problems(spec, w, want_theta):
    """Ranks and arrow-stability of a subrepresentation witness mod p."""
    rep, quiver = spec["rep"], spec["quiver"]
    p, dim = rep["p"], rep["dim"]
    mats = rep_matrices(rep)
    beta = w["beta"]
    out = []
    bases = {int(v): matrix(b, p) for v, b in w["bases"].items()}
    for v in range(1, quiver["vertices"] + 1):
        b = bases[v]
        if rank(b, p) != beta[v - 1] or len(b) != beta[v - 1]:
            out.append(f"witness basis at vertex {v} does not have rank {beta[v - 1]}")
    for aid, src, tgt in quiver["arrows"]:
        if not bases[src]:
            continue
        images = [[sum(row[k] * u[k] for k in range(dim[src - 1])) % p for row in mats[aid]]
                  for u in bases[src]]
        if rank(bases[tgt] + images, p) != rank(bases[tgt], p):
            out.append(f"witness is not stable under arrow {aid}")
    value = pairing(spec["theta"], beta)
    if value != w["theta_value"]:
        out.append(f"witness theta value {w['theta_value']} != {value}")
    if not want_theta(value):
        out.append(f"witness theta value {value} has the wrong sign")
    return out


def check_semistable(spec, rec):
    out = []
    dim = spec["rep"]["dim"]
    if rec["theta_of_m"] != pairing(spec["theta"], dim):
        out.append("theta(M) is wrong")
    if rec["semistable"]:
        if rec["witness"] is not None:
            out.append("semistable verdict carries a witness")
    elif rec["witness"] is None:
        out.append("unstable verdict without a witness")
    else:
        out += _witness_problems(spec, rec["witness"], lambda v: v < 0)
    construction = spec["construction"]
    if construction == "planted" and rec["semistable"]:
        out.append("planted destabilizing subrepresentation missed")
    if construction == "polystable" and not rec["semistable"]:
        out.append("polystable representation called unstable")
    return out


def check_stable(spec, rec):
    out = []
    dim = spec["rep"]["dim"]
    if rec["theta_of_m"] != pairing(spec["theta"], dim):
        out.append("theta(M) is wrong")
    w = rec["witness"]
    if rec["stable"]:
        if w is not None or not rec["semistable"]:
            out.append("stable verdict is inconsistent")
    elif w is None:
        out.append("not-stable verdict without a witness")
    elif rec["semistable"]:
        zero = [0] * len(dim)
        if w["beta"] in (zero, list(dim)):
            out.append("strict-semistability witness is not proper")
        out += _witness_problems(spec, w, lambda v: v == 0)
    else:
        out += _witness_problems(spec, w, lambda v: v < 0)
    construction = spec["construction"]
    if construction == "planted" and rec["semistable"]:
        out.append("planted destabilizing subrepresentation missed")
    if construction == "polystable" and (rec["stable"] or not rec["semistable"]):
        out.append("polystable sum of several stables must be strictly semistable")
    return out


def check_rational(spec, rec):
    out = []
    primes = spec["primes"]
    denominators = [Fraction(x).denominator for m in spec["rep"]["matrices"].values()
                    for row in m for x in row]
    # primes are tried in order, and a PROOF ends the search
    reached = primes
    if rec["certainty"] == "PROOF" and rec["witness_prime"] in primes:
        reached = primes[:primes.index(rec["witness_prime"]) + 1]
    dividing = [p for p in reached if any(d % p == 0 for d in denominators)]
    if rec["skipped"] != dividing:
        out.append(f"skipped primes {rec['skipped']} != {dividing}")
    tested = rec["primes_tested"]
    if tested != [p for p in reached if p not in dividing]:
        out.append(f"tested primes {tested} are not the usable primes of {reached}")
    if rec["verdict"] == "semistable":
        if rec["certainty"] != "HEURISTIC" or rec["witness_beta"] is not None:
            out.append("rational semistable verdict must be HEURISTIC without a witness")
    else:
        beta = rec["witness_beta"]
        value = pairing(spec["theta"], beta)
        if value != rec["witness_theta"] or value >= 0:
            out.append(f"witness theta value {rec['witness_theta']} is wrong")
        if rec["witness_prime"] not in tested:
            out.append("witness prime was not tested")
        if (rec["certainty"] == "PROOF") != bool(rec["lifted"]):
            out.append("PROOF must coincide with a lifted witness")
    # a base change can put every prime in a denominator; with no prime left
    # to test, HEURISTIC semistable is the documented answer
    if spec["construction"] in ("planted", "hidden") and tested and rec["verdict"] != "unstable":
        out.append("planted destabilizing subrepresentation missed")
    return out


def check_local_quiver(spec, rec):
    out = []
    dims = [r["dim"] for r in spec["reps"]]
    mults = spec["mults"]
    quiver = spec["quiver"]
    want = [[(1 if i == j else 0) - euler(quiver, a, b) for j, b in enumerate(dims)]
            for i, a in enumerate(dims)]
    if rec["arrow_counts"] != want:
        out.append(f"local quiver arrow counts {rec['arrow_counts']} != {want}")
    alpha = [sum(e * d[v] for e, d in zip(mults, dims)) for v in range(len(dims[0]))]
    if rec["model_dimension"] != 1 - euler(quiver, alpha, alpha):
        out.append("local model dimension != 1 - <alpha, alpha>")
    if not rec["verified"] or rec["multiplicities"] != mults:
        out.append("local quiver data not verified")
    return out


def check_table(kind, spec, rec):
    out = []
    quiver, alpha, theta = spec["quiver"], spec["alpha"], spec["theta"]
    subs = rec["generic_subs"]
    zero = [0] * len(alpha)
    if subs != sorted(subs) or zero not in subs or alpha not in subs:
        out.append("generic subdimension vectors must be sorted and contain 0 and alpha")
    if any(any(b > a for a, b in zip(alpha, beta)) for beta in subs):
        out.append("a generic subdimension vector exceeds alpha")
    semistable = all(pairing(theta, b) >= 0 for b in subs)
    stable = all(pairing(theta, b) > 0 for b in subs if b not in (zero, alpha))
    value = rec["value"]
    if kind == "ssne" and value != semistable:
        out.append("ssne disagrees with the generic subdimension vectors")
    if kind == "stne" and value != stable:
        out.append("stne disagrees with the generic subdimension vectors")
    if kind == "dim" and value != (1 - euler(quiver, alpha, alpha) if stable else None):
        out.append("moduli dimension is not 1 - <alpha, alpha> on the stable locus")
    # the n-dimensional Kronecker moduli: nonempty with dimension n^2 + 1 at
    # theta = (-1, 1), empty at (1, -1) (vertex 2 is a sink)
    if quiver["name"] == "K3" and alpha[0] == alpha[1]:
        n = alpha[0]
        known = {(-1, 1): {"ssne": True, "stne": True, "dim": n * n + 1},
                 (1, -1): {"ssne": False, "stne": False, "dim": None}}
        expected = known.get(tuple(theta), {}).get(kind, value)
        if value != expected:
            out.append(f"{kind} on K3 at {alpha} is {value}, expected {expected}")
    return out


def check_hom_ext(spec, rec):
    out = []
    quiver, p = spec["quiver"], spec["p"]
    alpha, beta = spec["alpha"], spec["beta"]
    if rec["m"]["dim"] != alpha or rec["n"]["dim"] != beta:
        out.append("sampled representations have the wrong dimension vectors")
    if rec["hom"] - rec["ext"] != euler(quiver, alpha, beta):
        out.append(f"hom - ext = {rec['hom'] - rec['ext']} != <alpha, beta>")
    if rec["ext"] < rec["generic_ext"]:
        out.append(f"sampled ext {rec['ext']} below generic ext {rec['generic_ext']}")
    if len(rec["hom_basis"]) != rec["hom"] or len(rec["cokernel"]) != rec["ext"]:
        out.append("hom basis or ext cokernel size disagrees with the dimension")
    m, n = rep_matrices(rec["m"]), rep_matrices(rec["n"])
    flat = []
    for f in rec["hom_basis"]:
        f = {int(v): matrix(x, p) for v, x in f.items()}
        for aid, src, tgt in quiver["arrows"]:
            # f_j M_a = N_a f_i for the arrow a: i -> j
            shape_l = (beta[tgt - 1], alpha[tgt - 1], alpha[src - 1])
            shape_r = (beta[tgt - 1], beta[src - 1], alpha[src - 1])
            if matmul(f[tgt], m[aid], p, shape_l) != matmul(n[aid], f[src], p, shape_r):
                out.append(f"hom basis element does not intertwine along {aid}")
                break
        flat.append([x for v in sorted(f) for row in f[v] for x in row])
    if flat and rank(flat, p) != len(flat):
        out.append("hom basis is linearly dependent")
    return out


def check_law(spec, rec):
    out = []
    quiver, sigma, rep = spec["quiver"], spec["sigma"], spec["rep"]
    p, dim = rep["p"], rep["dim"]
    mats = rep_matrices(rep)
    g = [matrix(x, p) for x in spec["g"]]
    d = det(evaluate_sigma(quiver, sigma, mats, dim, p), p)
    d_g = det(evaluate_sigma(quiver, sigma, act(quiver, g, mats, p), dim, p), p)
    chi = scalar(1, p)
    for gi, t in zip(g, spec["theta"]):
        dg = det(gi, p)
        chi *= dg ** t if t >= 0 else inverse(dg, p) ** -t
    chi = scalar(chi, p)
    got = {k: scalar(Fraction(rec[k]), p) for k in ("d", "d_g", "chi")}
    if got["d"] != d:
        out.append(f"d_sigma(M) = {rec['d']}, recomputed {d}")
    if got["d_g"] != d_g:
        out.append(f"d_sigma(g.M) = {rec['d_g']}, recomputed {d_g}")
    if got["chi"] != chi:
        out.append(f"chi_theta(g) = {rec['chi']}, recomputed {chi}")
    if got["d_g"] != scalar(got["chi"] ** spec["z"] * got["d"], p):
        out.append("d_sigma(g.M) != chi_theta(g)^z d_sigma(M)")
    return out


def check_point(spec, rec):
    out = []
    quiver, rep = spec["quiver"], spec["rep"]
    p, dim = rep["p"], rep["dim"]
    mats = rep_matrices(rep)
    evaluated = [evaluate_sigma(quiver, s, mats, dim, p) for s in spec["sigmas"]]
    dets = [det(e, p) for e in evaluated]
    got = [scalar(Fraction(x), p) for x in rec["determinants"]]
    if got != dets[:len(got)]:
        out.append(f"determinants {rec['determinants']} != recomputed {dets[:len(got)]}")
    invertible = all(x != 0 for x in dets)
    if rec["invertible"] != invertible:
        out.append(f"invertible = {rec['invertible']}, recomputed {invertible}")
    if not invertible:
        first_zero = next(i for i, x in enumerate(dets) if x == 0)
        if rec["failing_sigma"] != first_zero:
            out.append("failing sigma is not the first vanishing determinant")
        return out
    for e, inv in zip(evaluated, rec["inverses"] or []):
        inv = matrix(inv, p)
        ident = identity(len(e), p)
        if matmul(e, inv, p) != ident or matmul(inv, e, p) != ident:
            out.append("returned inverse fails M N = N M = I")
    if not rec["relations_verified"]:
        out.append("exact inverses reported as failing the relation check")
    return out


def _typing(pres):
    return {g: tuple(st) for g, st in pres["typing"].items()}


def _word_type(typing, word):
    """(source, target) of a word whose leftmost factor is applied last."""
    src = at = None
    for sym in reversed(word):
        s, t = typing[sym]
        if at is not None and s != at:
            return None
        src = s if at is None else src
        at = t
    return (src, at)


def _presentation_problems(quiver_vertices, n_arrows, sigmas, pres):
    out = []
    typing = _typing(pres)
    k = quiver_vertices
    y_vars = sum(len(s["domain"]) * len(s["codomain"]) for s in sigmas)
    if len(pres["generators"]) != k + n_arrows + y_vars:
        out.append("generator count is wrong")
    want = k * k + 1 + 2 * n_arrows + sum(len(s["domain"]) ** 2 + len(s["codomain"]) ** 2
                                          for s in sigmas)
    if len(pres["relations"]) != want:
        out.append(f"relation count {len(pres['relations'])} != {want}")
    for rel in pres["relations"]:
        if rel["rhs"] in ("0", "1") or not rel["lhs"]:
            continue  # orthogonal idempotents, the unit, and empty sums (0 = v_i)
        types = {_word_type(typing, t["word"]) for t in rel["lhs"]}
        if types != {typing[rel["rhs"]]}:
            out.append(f"relation {rel} is not typed like its right side")
            break
    return out


def check_presentation(kind, spec, rec):
    doc = json.loads(rec["text"])
    pres = doc["presentation"]
    quiver = spec["quiver"]
    k, n_arrows = quiver["vertices"], len(quiver["arrows"])
    sigmas = spec["sigmas"]
    if kind == "localize":
        return _presentation_problems(k, n_arrows, sigmas, pres)
    n = spec["n"]
    tau = {"domain": list(range(1, k + 1)), "codomain": [k + 1] * n}
    out = _presentation_problems(k + 1, n_arrows + k * n, sigmas + [tau], pres)
    # loop words at v0: recount them from the typing
    typing = _typing(pres)
    v0 = k + 1
    idempotents = {f"v{i}" for i in range(k + 1)}  # default vertex labels, and v0
    letters = sorted(g for g in typing if g not in idempotents)
    loops = [["v0"]]
    frontier = [((), v0)]
    for _ in range(spec["loop_bound"]):
        frontier = [((g,) + w, typing[g][1]) for w, at in frontier
                    for g in letters if typing[g][0] == at]
        loops += [list(w) for w, at in frontier if at == v0]
    loops.sort(key=lambda w: (len(w), w))
    if doc["loops"] != loops:
        out.append("loop words at v0 differ from their recount")
    return out


def check(kind: str, spec: dict, rec: dict) -> list[str]:
    if kind == "check-ss":
        return check_semistable(spec, rec)
    if kind == "check-st":
        return check_stable(spec, rec)
    if kind == "check-ss-q":
        return check_rational(spec, rec)
    if kind == "local-quiver":
        return check_local_quiver(spec, rec)
    if kind in ("ssne", "stne", "dim"):
        return check_table(kind, spec, rec)
    if kind == "hom-ext":
        return check_hom_ext(spec, rec)
    if kind == "law":
        return check_law(spec, rec)
    if kind == "check-point":
        return check_point(spec, rec)
    if kind in ("localize", "root"):
        return check_presentation(kind, spec, rec)
    raise ValueError(f"no check for query kind {kind!r}")
