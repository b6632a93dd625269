package repro.bench

import repro.SynthGraphs
import repro.harness.TableHarness

/** Table 6: performance of paged NE++ on the OK graph under shrinking memory
  * limits — reproduced with the LRU paging simulator (DESIGN.md §4 row T6):
  * hard faults and (modelled) runtime explode as the limit drops below the
  * column-array footprint, while the unconstrained run faults only cold
  * pages. The paper's companion observation — HEP at τ=1 fits a small
  * budget natively with *zero* faults — is asserted via the memory model.
  */
class Table6PagingBench extends BenchBase {

  private val k = 32

  private lazy val sg = SynthGraphs.okProxy(spark, benchScale)

  private lazy val result = {
    val g = repro.core.GraphData.fromDF(sg.df, sg.nV)
    val csrBytes = repro.core.PrunedCsr.build(g, Some(100.0)).memoryFootprintBytes(k)
    // sweep from "fits comfortably" down to "almost nothing resident"
    val limits = Seq(1.2, 0.8, 0.6, 0.4, 0.25, 0.15).map(f => (csrBytes * f).toLong)
    val (rows, baseMs) = TableHarness.table6(sg, k, tau = 100.0, limits)
    (rows, baseMs, csrBytes, g)
  }

  test("produce Table 6") {
    val (rows, baseMs, csrBytes, _) = result
    println(s"\nOK-proxy CSR footprint at tau=100: $csrBytes bytes; " +
      s"unconstrained HEP-100 runtime (CSR build included): $baseMs ms")
    printTable("Table 6: simulated paging of NE++ on OK-proxy, k=32",
      Seq("mem_limit_bytes", "hard_faults", "accesses", "modelled_ms") +:
        rows.map(r => Seq(r.memLimitBytes.toString, r.faults.toString,
          r.accesses.toString, r.modelledMs.toString)))
    assert(rows.length == 6)
  }

  test("hard faults increase monotonically as the limit shrinks") {
    val (rows, _, _, _) = result
    val faults = rows.map(_.faults)
    assert(faults == faults.sorted, s"faults not monotone: $faults")
  }

  test("the tightest limit faults orders of magnitude more than the loosest") {
    val (rows, _, _, _) = result
    assert(rows.last.faults > rows.head.faults * 10,
      s"paging cliff too shallow: ${rows.head.faults} -> ${rows.last.faults}")
  }

  test("HEP at low tau fits a budget that pages NE++ (the paper's alternative)") {
    val (rows, _, _, g) = result
    // take a mid-sweep limit that causes paging at tau=100 ...
    val tight = rows(2).memLimitBytes
    assert(rows(2).faults > 0)
    // ... and show HEP at tau=1 fits it natively (zero faults by construction)
    val hepBytes = repro.core.PrunedCsr.build(g, Some(1.0)).memoryFootprintBytes(k)
    assert(hepBytes <= tight,
      s"HEP tau=1 needs $hepBytes bytes, budget is $tight")
  }
}
