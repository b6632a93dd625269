package repro.harness

import repro.{SparkSpec, SynthGraphs}

/** Smoke + structure tests of the per-table harnesses at miniature scale
  * (the full-size runs live in `bench/`).
  */
class TableHarnessSpec extends SparkSpec {

  private lazy val tiny = Seq(SynthGraphs.ljProxy(spark, scale = 0.1))

  test("table1 covers every partitioner, k, and edge scale") {
    val rows = TableHarness.table1(spark, scale = 0.02).rows
    val algos = TableHarness.allPartitioners().map(_.name).toSet
    assert(rows.map(_.algo).toSet == algos)
    assert(rows.map(_.k).toSet == Set(4, 32, 128, 256))
    val nEs = rows.map(_.nE).distinct.sorted
    assert(nEs.length == 2 && nEs(0) == nEs(1) / 2)
    assert(rows.forall(_.millis >= 0))
  }

  test("table2 reports a runtime and a footprint grid per graph") {
    val rows = TableHarness.table2(tiny).rows
    assert(rows.length == 1)
    assert(rows.head.footprints.map(_.tau) == Seq(100.0, 10, 4, 2, 1, 0.5))
    assert(rows.head.millis >= 0)
  }

  test("table3 reports Table 3's columns for each proxy") {
    val rows = TableHarness.table3(tiny).rows
    val r = rows.head
    assert(r.graph == "LJ-proxy" && r.kind == "Social")
    assert(r.sizeBytes == r.nE * 8)
    assert(r.nV > 0 && r.nE > 0)
  }

  test("table4 produces one row per (graph, partitioner) with sane metrics") {
    val rows = TableHarness.table4(spark, tiny, k = 4, prIters = 2, nSeeds = 1,
      partitioners = Seq(new repro.core.Hep(10), new repro.baselines.Dbh())).rows
    assert(rows.length == 2)
    rows.foreach { r =>
      assert(r.rf >= 1.0, s"${r.algo} rf=${r.rf}")
      assert(r.prMs >= 0 && r.bfsMs >= 0 && r.ccMs >= 0)
    }
    val byAlgo = rows.map(r => r.algo -> r.rf).toMap
    assert(byAlgo("HEP-10") < byAlgo("DBH"))
  }

  test("table5 covers the three tau settings") {
    val rows = TableHarness.table5(spark, tiny).rows
    assert(rows.map(_.algo) == Seq("HEP-100", "HEP-10", "HEP-1"))
    assert(rows.forall(_.stdOverAvg >= 0.0))
  }

  test("table6 fault counts grow as the memory limit shrinks") {
    val t = TableHarness.table6(spark, scale = 0.02)
    assert(t.baseMs >= 0)
    val faults = t.rows.map(_.faults)
    assert(faults == faults.sorted, s"faults not monotone: $faults")
    assert(t.rows.map(_.memLimitBytes) == t.rows.map(_.memLimitBytes).sorted.reverse)
    assert(t.rows.forall(_.modelledMs >= 0))
  }

  test("warmMedian warms up, then takes the median of 3") {
    val w = TableHarness.WarmupCalls
    val times = Iterator.fill(w)(999L) ++ Iterator(30L, 10L, 20L)
    var calls = 0
    val (last, ms) = TableHarness.warmMedian { calls += 1; (calls, times.next()) }(_._2)
    assert(w == 5 && calls == w + 3 && last == ((w + 3, 20L)) && ms == 20L)
  }

  test("render of a table prints its title, notes, header and rows") {
    val t = TableHarness.Table5(Nil, Seq(TableHarness.T5Row("G", "HEP-1", 0.1234)))
    assert(TableHarness.render(t).split("\n").toSeq == Seq(
      "=== Table 5: HEP vertex balancing (std/avg), k=32 ===",
      "graph  algo   std/avg",
      "G      HEP-1  0.123  "))
  }

  test("render produces aligned columns") {
    val out = TableHarness.render(Seq(Seq("a", "bb"), Seq("ccc", "d")))
    val lines = out.split("\n")
    assert(lines.length == 2)
    assert(lines(0).length == lines(1).length)
  }

  test("render of nothing is empty") {
    assert(TableHarness.render(Nil) == "")
  }
}
