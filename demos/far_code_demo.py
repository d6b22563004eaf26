"""Demo: the concatenated VT construction for far-apart errors.

When errors are pairwise at least 3P positions apart, each length-P
block of the codeword suffers at most one error, and a left-to-right
checksum scan can locate and fix them one at a time.  The codebook
concatenates t-1 non-constant words of VT_a1(P) and one word of
VT_a2(P+s), with n = t*P + s.
"""

from delcodes import (ErrorPattern, PatternFamily, apply_pattern, far_decode,
                      far_encode, far_params, family_size, make_code,
                      redundancy, verify_combinatorial, verify_roundtrip,
                      word_to_str)

p = far_params(12, 3)
print(f"far code n=12, P=3: t={p.t} blocks, s={p.s}, residues "
      f"a1={p.a1}, a2={p.a2}")
print(f"inner alphabet: {[word_to_str(w) for w in p.inner_alphabet]}")
print(f"codebook size {p.codeword_count}, redundancy "
      f"{redundancy(p.n, p.codeword_count):.1f} bits")
print()

x = far_encode(p, (0, 0, 1, 1))
print(f"encode (0, 0, 1, 1) -> {word_to_str(x)}")

g = ErrorPattern.from_dict(12, {2: "F", 11: "E"})
y = apply_pattern(x, g)
estimate, info = far_decode(p, y)
print(f"corrupt with flip@2 + erasure@11 -> {word_to_str(y)}")
print(f"decode -> {word_to_str(estimate)} "
      f"({'match' if estimate == x else 'mismatch'}, "
      f"one scan, {info.iterations - 1} correction(s))")
print()

fam = PatternFamily.p_far(12, 9)
print(f"9-far pattern family at n=12: {family_size(fam)} patterns")
code = make_code("far", n=12, P=3)
comb = verify_combinatorial(list(code.codewords()), fam)
rt = verify_roundtrip(code, fam)
print(f"combinatorial disjointness: {comb.result}")
print(f"exhaustive round trip: {rt.result} over {rt.cases} cases "
      f"({rt.ambiguity_count} flagged ambiguous)")
