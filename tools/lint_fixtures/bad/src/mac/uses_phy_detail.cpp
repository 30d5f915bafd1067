// Known-bad fixture: a cross-module detail:: reach-in. phy::detail is
// module-private (kernel seams, plans, tables); the MAC
// layer grabbing one directly bypasses the dispatch table and the
// scalar/SIMD parity tests. Scanned, never compiled.
namespace mac {

double shortcut_branch_metric(int symbol) {
  return phy::detail::reference_branch_metric(symbol);
}

}  // namespace mac
