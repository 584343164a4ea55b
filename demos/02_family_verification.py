"""Exact verification of the boundary-word family.

For each index n the family fixes two free-group words m1, m2 (with
longitude companions l1, l2), an explicit integer matrix pair (rho_a,
rho_b), and the limiting character chi_n = (-2, 2n+2, -2n).  The
verification report checks, in exact rational arithmetic:

  * the images of m1, m2, l1, l2, m1 l1, m2 l2 against closed forms,
  * equal traces and the conjugacy verdicts between the paired words,
  * the rank-2 Jacobian of the three trace-difference equations at chi_n,
    its kernel direction, and which trace coordinates stay local,
  * the Hessian of the longitude trace and its nonzero value 648 (at n=1)
    on the kernel vector,
  * that the longitude itself maps to the identity at chi_n.
"""

from sl2arc import lin_presentation, make_family, verify_lemma

print("== family instance at n = 1 ==")
fam = make_family(1)
print(f"  m1 = {fam.m1}   m2 = {fam.m2}")
print(f"  l1 = {fam.l1}   l2 = {fam.l2}")
print(f"  rho_a rows: {fam.rho_a.entries()}")
print(f"  rho_b rows: {fam.rho_b.entries()}")
print(f"  chi_1 = {fam.chi}")
print()

print("== full assertion report at n = 1 ==")
print(verify_lemma(1).text())
print()

print("== one-line reports for n = 2..6 ==")
for n in range(2, 7):
    report = verify_lemma(n)
    verdict = "PASS" if report.all_pass else "FAIL"
    print(f"  n={n}: {verdict} ({len(report.assertions)} assertions)")
print()

print("== the same report in floats (zero within 64 u of each check's scale) ==")
report = verify_lemma(1, exact=False)
print(f"  n=1 float mode: {'PASS' if report.all_pass else 'FAIL'} "
      f"({len(report.assertions)} assertions, same assertion names)")
print()

print("== spliced genus-one presentation text (p, q, r) = (1, 1, 1) ==")
for rel in lin_presentation(1, 1, 1).relators:
    print(f"  {rel}")
