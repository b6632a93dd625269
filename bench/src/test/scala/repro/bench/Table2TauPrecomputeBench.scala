package repro.bench

import repro.harness.TableHarness

/** Table 2: run-time to pre-compute the memory footprint for a τ grid
  * (Section 4.4). The paper's claim: this is negligible relative to
  * partitioning time, so choosing τ to fit a memory bound is practical.
  */
class Table2TauPrecomputeBench extends BenchBase {

  private lazy val table = TableHarness.table2(spark, benchScale)
  import table.{partMs, rows}

  test("produce Table 2 pre-computation runtimes") {
    printTable(table)
    assert(rows.length == 3)
  }

  test("footprint grid is monotone in tau for every graph") {
    rows.foreach { r =>
      val bytes = r.footprints.sortBy(_.tau).map(_.footprintBytes)
      assert(bytes == bytes.sorted, s"${r.graph}: $bytes")
    }
  }

  test("pre-computation is far cheaper than partitioning (paper's claim)") {
    // the paper reports seconds vs minutes; at our scale allow a loose 5x
    rows.foreach { r =>
      assert(r.millis <= math.max(partMs, 50L) * 20,
        s"${r.graph}: precompute ${r.millis} ms vs partition $partMs ms")
    }
  }
}
