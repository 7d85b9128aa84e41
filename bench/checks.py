"""Output checkers for the benchmark, written apart from the faicodes package.

Nothing here imports faicodes: the Möbius transform, degrees, GF(2^n)
arithmetic, Reed-Muller rows and GF(2) ranks are recomputed with code of
the benchmark's own, so a fault in a shared helper cannot hide itself.
Each ``check_*`` function takes one parsed JSON record plus what the
benchmark asked for, and returns a list of problems (empty when the
record is correct).
"""

from __future__ import annotations

from math import comb

# --- Boolean functions ------------------------------------------------------


def parse_hex_spec(spec: str) -> tuple[int, int]:
    """'n:HEX' (point 0 = least significant bit) -> (n, truth table)."""
    head, _, body = spec.partition(":")
    n = int(head)
    if len(body) != ((1 << n) + 3) // 4:
        raise ValueError(f"bad hex length in {spec!r}")
    tt = int(body, 16)
    if tt >> (1 << n):
        raise ValueError(f"{spec!r} does not fit 2^{n} bits")
    return n, tt


def hex_spec(n: int, tt: int) -> str:
    return f"{n}:{tt:0{((1 << n) + 3) // 4}X}"


def anf_coefficients(tt: int, n: int) -> list[int]:
    """Möbius transform on a list of bits: a[m] = XOR of f(x) over x inside m."""
    a = [(tt >> i) & 1 for i in range(1 << n)]
    for j in range(n):
        bit = 1 << j
        for m in range(1 << n):
            if m & bit:
                a[m] ^= a[m ^ bit]
    return a


def coefficients_to_int(a: list[int]) -> int:
    return sum(1 << m for m, c in enumerate(a) if c)


def degree_of_tt(tt: int, n: int) -> int:
    """Algebraic degree (0 for the zero function, as in the program)."""
    return max((m.bit_count() for m, c in enumerate(anf_coefficients(tt, n)) if c), default=0)


def parse_anf_text(text: str, n: int) -> list[int]:
    """'x1*x3 + x2 + 1' -> list of monomial masks (bit j-1 for x_j)."""
    if text.strip() == "0":
        return []
    masks = []
    for term in text.split(" + "):
        term = term.strip()
        if term == "1":
            masks.append(0)
            continue
        mask = 0
        for var in term.split("*"):
            if not var.startswith("x"):
                raise ValueError(f"bad variable {var!r} in {text!r}")
            j = int(var[1:])
            if not 1 <= j <= n or mask >> (j - 1) & 1:
                raise ValueError(f"bad variable {var!r} in {text!r}")
            mask |= 1 << (j - 1)
        masks.append(mask)
    if len(set(masks)) != len(masks):
        raise ValueError(f"repeated monomial in {text!r}")
    return masks


# --- GF(2^n) and GF(2) linear algebra ---------------------------------------


def alpha_powers(n: int, modulus: int) -> list[int] | None:
    """[alpha^0, ..., alpha^(2^n - 2)] for alpha = x, or None if x is not primitive."""
    if modulus.bit_length() != n + 1:
        return None
    powers, val = [], 1
    for _ in range((1 << n) - 1):
        powers.append(val)
        val <<= 1
        if val >> n:
            val ^= modulus
    if val != 1 or len(set(powers)) != len(powers):
        return None
    return powers


def default_modulus(n: int) -> int:
    """The smallest primitive polynomial of degree n (the program's default field)."""
    for modulus in range((1 << n) | 1, 1 << (n + 1), 2):
        if alpha_powers(n, modulus) is not None:
            return modulus
    raise ValueError(f"no primitive polynomial of degree {n}")


def carlet_feng_points(n: int, offset: int, modulus: int) -> list[int]:
    """Support points alpha^offset, ..., alpha^(offset + 2^(n-1) - 1), plus 0 when n = 2^t."""
    powers = alpha_powers(n, modulus)
    order = (1 << n) - 1
    points = [powers[(offset + i) % order] for i in range(1 << (n - 1))]
    if n & (n - 1) == 0:
        points.append(0)
    return points


def gf2_rank(rows: list[int]) -> int:
    """Rank by elimination on the lowest set bit of each pivot row."""
    pivots: list[int] = []
    for row in rows:
        for p in pivots:
            if row & (p & -p):
                row ^= p
        if row:
            low = row & -row
            pivots = [p ^ row if p & low else p for p in pivots]
            pivots.append(row)
    return len(pivots)


def restricted_rm_rows(e: int, n: int, points: list[int]) -> list[int]:
    """One row per monomial of degree <= e; bit j = the monomial at points[j]."""
    rows = []
    for m in range(1 << n):
        if m.bit_count() <= e:
            rows.append(sum(1 << j for j, p in enumerate(points) if p & m == m))
    return rows


def hull_and_dim(rows: list[int]) -> tuple[int, int]:
    """(hull dimension, code dimension) of the row space: rank(G) - rank(G G^T), rank(G)."""
    gram = []
    for ri in rows:
        acc = 0
        for j, rj in enumerate(rows):
            if (ri & rj).bit_count() & 1:
                acc |= 1 << j
        gram.append(acc)
    dim = gf2_rank(rows)
    return dim - gf2_rank(gram), dim


# --- record checkers ---------------------------------------------------------


def check_analyze(record: dict, spec: str, carlet_feng: bool = False) -> list[str]:
    """Laws every `analyze --json` record must satisfy for the function `spec`."""
    bad: list[str] = []
    try:
        n, tt = parse_hex_spec(spec)
        n_rec, tt_rec = parse_hex_spec(record["tt"])
        if (n_rec, tt_rec) != (n, tt) or record["n"] != n:
            return [f"record describes {record['tt']}, not {spec}"]
        deg = degree_of_tt(tt, n)
        if record["deg"] != deg:
            bad.append(f"deg {record['deg']} != {deg}")
        if record["wt"] != tt.bit_count():
            bad.append(f"wt {record['wt']} != {tt.bit_count()}")

        ai, lda_f, lda_fc = record["ai"], record["lda_f"], record["lda_fc"]
        fai, ffai, prof = record["fai"], record["ffai"], record["profile"]
        if ai != min(lda_f, lda_fc) or ai > (n + 1) // 2:
            bad.append(f"ai {ai} is not min(lda_f, lda_fc) <= ceil(n/2)")
        if not lda_fc + 1 <= fai <= 2 * lda_fc:
            bad.append(f"fai {fai} outside [lda_fc + 1, 2 lda_fc] = [{lda_fc + 1}, {2 * lda_fc}]")
        if len(prof) != n or None in prof:
            bad.append(f"profile {prof} is not {n} defined values")
        else:
            if lda_fc != min(prof):
                bad.append(f"lda_fc {lda_fc} != min(profile) {min(prof)}")
            if any(a < b for a, b in zip(prof, prof[1:])) or prof[0] > deg:
                bad.append(f"profile {prof} is not non-increasing and <= deg {deg}")
            if fai < min(k + m for k, m in enumerate(prof, start=1)):
                bad.append(f"fai {fai} < min_k(k + mu_k)")
        if ffai > fai:
            bad.append(f"ffai {ffai} > fai {fai}")

        g = parse_anf_text(record["witness_g"], n)
        if g in ([], [0]):
            bad.append(f"witness g = {record['witness_g']!r} is a constant")
        else:
            # the transform is an involution: applied to ANF bits it gives the truth table
            product = tt & coefficients_to_int(anf_coefficients(sum(1 << m for m in g), n))
            if product == 0:
                bad.append("witness g annihilates f")
            total = max(m.bit_count() for m in g) + degree_of_tt(product, n)
            if not total == record["witness_total"] == fai:
                bad.append(f"deg(g) + deg(fg) = {total}, witness_total {record['witness_total']}, fai {fai}")
        if carlet_feng and (ai != (n + 1) // 2 or fai < n):
            bad.append(f"Carlet-Feng function without optimal AI and PAI: ai {ai}, fai {fai}")
    except (KeyError, TypeError, ValueError) as exc:
        bad.append(f"malformed record: {exc!r}")
    return bad


def check_certificate(
    record: dict,
    n: int,
    recheck_order: int,
    spec: str | None = None,
    offset: int | None = None,
) -> list[str]:
    """Laws of a `pai-verify` (spec given) or `carlet-feng` (offset given) certificate.

    The order `recheck_order`, and the first non-LCD order if there is one,
    have their hull recomputed on the benchmark's own alpha-power enumeration.
    """
    bad: list[str] = []
    try:
        n_rec, tt = parse_hex_spec(record["tt"])
        if n_rec != n or record["n"] != n:
            return [f"certificate for n={record['n']}, asked for n={n}"]
        if spec is not None and parse_hex_spec(spec) != (n, tt):
            return [f"certificate describes {record['tt']}, not {spec}"]
        modulus = int(record["modulus"], 16)
        if modulus != default_modulus(n):
            bad.append(f"modulus {record['modulus']} is not the default {default_modulus(n):#x}")
        powers = alpha_powers(n, modulus)
        if powers is None:
            return bad + [f"modulus {record['modulus']} is not primitive of degree {n}"]
        wt = tt.bit_count()
        if record["wt"] != wt:
            bad.append(f"wt {record['wt']} != {wt}")
        if record["deg"] != degree_of_tt(tt, n):
            bad.append(f"deg {record['deg']} != {degree_of_tt(tt, n)}")

        per_e = record["per_e_lcd_status"]
        if [entry["e"] for entry in per_e] != list(range(1, n + 1)):
            return bad + ["per-order entries are not e = 1..n"]
        for entry in per_e:
            e, dim, hull = entry["e"], entry["dim"], entry["hull"]
            full = sum(comb(n, i) for i in range(e + 1))
            if entry["length"] != wt or not 0 <= hull <= dim <= min(wt, full):
                bad.append(f"e={e}: length {entry['length']}, dim {dim}, hull {hull} out of range")
            if entry["lcd"] != (hull == 0):
                bad.append(f"e={e}: lcd {entry['lcd']} but hull {hull}")
        if record["pai_by_def"] != (record["fai"] >= n):
            bad.append(f"pai_by_def {record['pai_by_def']} but fai {record['fai']}")
        if record["pai_by_lcd"] != all(entry["lcd"] for entry in per_e):
            bad.append("pai_by_lcd disagrees with the per-order verdicts")
        if not record["agree"] or record["pai_by_def"] != record["pai_by_lcd"]:
            bad.append("definitional and LCD verdicts do not agree")

        if offset is not None:
            if record["offset"] != offset:
                bad.append(f"offset {record['offset']} != {offset}")
            order = (1 << n) - 1
            cols = {(offset + i) % order + 1 for i in range(1 << (n - 1))}
            if n & (n - 1) == 0:
                cols.add(0)
            if record["columns"] != sorted(cols):
                bad.append("columns are not the consecutive powers of alpha")
            if tt != sum(1 << p for p in carlet_feng_points(n, offset, modulus)):
                bad.append("truth table is not the support of the consecutive powers")
            if wt != (1 << (n - 1)) + (n & (n - 1) == 0):
                bad.append(f"Carlet-Feng weight {wt} != 2^(n-1) + [n = 2^t]")
            if not record["pai_by_def"]:
                bad.append("Carlet-Feng function is not PAI by definition")
            for entry in per_e[: (n - 1) // 2]:
                want = sum(comb(n, i) for i in range(entry["e"] + 1))
                if entry["dim"] != want:
                    bad.append(f"e={entry['e']}: dim {entry['dim']} != {want}")

        # columns in the program's order: 0, alpha^0, alpha^1, ...
        column = {0: 0} | {p: j + 1 for j, p in enumerate(powers)}
        points = sorted((x for x in range(1 << n) if tt >> x & 1), key=column.__getitem__)
        first_non_lcd = min((entry["e"] for entry in per_e if not entry["lcd"]), default=None)
        orders = {recheck_order} | ({first_non_lcd} if first_non_lcd else set())
        for e in sorted(orders):
            hull, dim = hull_and_dim(restricted_rm_rows(e, n, points))
            entry = per_e[e - 1]
            if (entry["hull"], entry["dim"]) != (hull, dim):
                bad.append(f"e={e}: hull/dim {entry['hull']}/{entry['dim']}, recomputed {hull}/{dim}")
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        bad.append(f"malformed record: {exc!r}")
    return bad


def check_sweep(record: dict, suite: str, n: int, trials: int, seed: int) -> list[str]:
    """A `sweep --json` record: the echo matches, no failures, >= 1 check per trial."""
    bad: list[str] = []
    try:
        echo = (record["suite"], record["n"], record["trials"], record["seed"])
        if echo != (suite, n, trials, seed):
            bad.append(f"record echoes {echo}, asked for {(suite, n, trials, seed)}")
        if record["failures"]:
            bad.append(f"{len(record['failures'])} failures, first: {record['failures'][0]}")
        cases = trials if trials else 1 << (1 << n)  # trials = 0: exhaustive over all tt
        if record["checks"] < cases:
            bad.append(f"{record['checks']} checks for {cases} trials")
    except (KeyError, TypeError) as exc:
        bad.append(f"malformed record: {exc!r}")
    return bad
