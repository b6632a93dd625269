package repro.bench

import repro.harness.TableHarness

/** Table 1 (empirical side): the paper's Table 1 is analytic; here we verify
  * the *scaling shape* of every implemented partitioner — streaming scorers
  * (HDRF, Greedy) scale ≈ linearly in k, the stateless hashers (DBH, Grid,
  * Random) are ≈ flat in k, and everything is ≈ linear in |E|. The analytic
  * rows are transcribed in EXPERIMENTS.md.
  */
class Table1ComplexityBench extends BenchBase {

  private lazy val table = TableHarness.table1(spark, benchScale)
  import table.rows

  test("produce Table 1 runtime grid") {
    printTable(table)
    assert(rows.nonEmpty)
  }

  test("stateful streaming scorers scale with k; stateless hashing does not") {
    val full = rows.filter(r => r.nE == rows.map(_.nE).max)
    def t(algo: String, k: Int): Double =
      math.max(1.0, full.find(r => r.algo == algo && r.k == k).get.millis.toDouble)
    // HDRF at k=256 computes 64x more scores than at k=4
    assert(t("HDRF", 256) / t("HDRF", 4) > 4.0,
      s"HDRF k-scaling too flat: ${t("HDRF", 4)} -> ${t("HDRF", 256)}")
    // DBH is k-independent: allow generous noise but nowhere near HDRF's ratio
    assert(t("DBH", 256) / t("DBH", 4) < 4.0,
      s"DBH should not scale with k: ${t("DBH", 4)} -> ${t("DBH", 256)}")
  }

  test("every partitioner is roughly linear in |E| at fixed k") {
    val big = rows.map(_.nE).max
    rows.groupBy(_.algo).foreach { case (algo, rs) =>
      val tFull = rs.filter(r => r.nE == big && r.k == 32).head.millis
      val tHalf = rs.filter(r => r.nE != big && r.k == 32).head.millis
      // superlinear blowup would show a ratio far above 2
      assert(tFull.toDouble <= math.max(tHalf.toDouble, 1.0) * 8 + 200,
        s"$algo: half=$tHalf full=$tFull")
    }
  }
}
