package repro.bench

import repro.harness.TableHarness

/** Table 6: performance of paged NE++ on the OK graph under shrinking memory
  * limits — reproduced with the LRU paging simulator (DESIGN.md §4 row T6):
  * hard faults and (modelled) runtime explode as the limit drops below the
  * column-array footprint, while the unconstrained run faults only cold
  * pages. The paper's companion observation — HEP at τ=1 fits a small
  * budget natively with *zero* faults — is asserted via the memory model.
  */
class Table6PagingBench extends BenchBase {

  private lazy val table = TableHarness.table6(spark, benchScale)
  private val k = TableHarness.K

  test("produce Table 6") {
    val rows = table.rows
    printTable(table)
    assert(rows.length == 6)
  }

  test("hard faults increase monotonically as the limit shrinks") {
    val faults = table.rows.map(_.faults)
    assert(faults == faults.sorted, s"faults not monotone: $faults")
  }

  test("the tightest limit faults orders of magnitude more than the loosest") {
    val rows = table.rows
    assert(rows.last.faults > rows.head.faults * 10,
      s"paging cliff too shallow: ${rows.head.faults} -> ${rows.last.faults}")
  }

  test("HEP at low tau fits a budget that pages NE++ (the paper's alternative)") {
    val rows = table.rows
    // take a mid-sweep limit that causes paging at tau=100 ...
    val tight = rows(2).memLimitBytes
    assert(rows(2).faults > 0)
    // ... and show HEP at tau=1 fits it natively (zero faults by construction)
    val hepBytes = repro.core.PrunedCsr.build(table.g, Some(1.0)).memoryFootprintBytes(k)
    assert(hepBytes <= tight,
      s"HEP tau=1 needs $hepBytes bytes, budget is $tight")
  }
}
