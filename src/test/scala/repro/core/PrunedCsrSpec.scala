package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs

class PrunedCsrSpec extends AnyFunSuite {

  test("paper Figure 4: high-degree classification at tau = 1.5") {
    val g = TestGraphs.figure4
    val csr = PrunedCsr.build(g, Some(1.5))
    assert((0 until 9).filter(csr.isHigh) == Seq(4, 5))
    assert(csr.highCount == 2)
  }

  test("paper Figure 4: pruned column array has 13 of 22 entries") {
    val g = TestGraphs.figure4
    assert(PrunedCsr.build(g, None).colLength == 22)
    assert(PrunedCsr.build(g, Some(1.5)).colLength == 13)
  }

  test("paper Figure 4: the single h2h edge is diverted") {
    val g = TestGraphs.figure4
    val csr = PrunedCsr.build(g, Some(1.5))
    assert(csr.h2hEdgeIds.toSeq == Seq(0)) // edge 0 is (4, 5)
    assert(csr.inMemEdgeCount == 10)
  }

  test("the build counts h2h edges and lists their ids on demand, ascending") {
    val fig = PrunedCsr.build(TestGraphs.figure4, Some(1.5))
    assert(fig.h2hCount == 1 && fig.inMemEdgeCount == TestGraphs.figure4.nE - 1)
    assert(fig.h2hEdgeIds.toSeq == Seq(0)) // edge 0 is (4, 5), both high
    val g = TestGraphs.powerLaw(300, 1500, gamma = 2.5, seed = 4)
    for (tau <- Seq(0.3, 1.0, 3.0)) {
      val csr = PrunedCsr.build(g, Some(tau))
      val ids = csr.h2hEdgeIds
      assert(csr.h2hCount > 0 && ids.length == csr.h2hCount, s"tau=$tau")
      assert(csr.inMemEdgeCount == g.nE - csr.h2hCount, s"tau=$tau")
      assert(ids.toSeq == (0 until g.nE).filter(e => csr.isHigh(g.src(e)) && csr.isHigh(g.dst(e))),
        s"tau=$tau: not the ascending h2h edge ids")
    }
  }

  test("unpruned build keeps every edge in memory") {
    val g = TestGraphs.figure4
    val csr = PrunedCsr.build(g, None)
    assert(csr.h2hEdgeIds.isEmpty && csr.inMemEdgeCount == g.nE && csr.highCount == 0)
  }

  test("out-list holds left-hand-side edges, in-list right-hand-side") {
    // edges: 0->1, 2->0, 0->3
    val g = GraphData.fromEdges(4, Seq((0, 1), (2, 0), (0, 3)))
    val csr = PrunedCsr.build(g, None)
    val (out0, in0) = new CsrView(csr).regions(0)
    assert(out0.map(_._1).sorted == Seq(1, 3))
    assert(in0.map(_._1) == Seq(2))
    assert(out0.map(_._2).sorted == Seq(0, 2) && in0.map(_._2) == Seq(1))
  }

  test("adjacency of a low vertex includes its high neighbours") {
    val g = TestGraphs.figure4
    val csr = PrunedCsr.build(g, Some(1.5))
    val (out0, in0) = new CsrView(csr).regions(0)
    // vertex 0 has edges (4,0) [in from high 4] and (0,7) [out to 7]
    assert(in0.map(_._1) == Seq(4))
    assert(out0.map(_._1) == Seq(7))
  }

  test("high vertices have empty regions") {
    val csr = PrunedCsr.build(TestGraphs.figure4, Some(1.5))
    val col = new CsrView(csr)
    assert(col.outSize(4) == 0 && col.inSize(4) == 0 && csr.validDegree(5) == 0)
  }

  test("colLength equals the sum of low-degree vertex degrees") {
    val g = TestGraphs.powerLaw(200, 800, gamma = 3.0, seed = 1)
    val csr = PrunedCsr.build(g, Some(2.0))
    val expected = (0 until g.nV).filter(v => !csr.isHigh(v)).map(g.degrees(_)).sum
    assert(csr.colLength == expected)
  }

  test("every non-h2h edge appears once per low endpoint") {
    val g = TestGraphs.powerLaw(100, 400, gamma = 3.0, seed = 2)
    val csr = PrunedCsr.build(g, Some(1.0))
    val h2h = csr.h2hEdgeIds.toSet
    val appearances = scala.collection.mutable.Map.empty[Int, Int].withDefaultValue(0)
    val col = new CsrView(csr)
    (0 until g.nV).foreach { v =>
      val (out, in) = col.regions(v)
      (out ++ in).foreach { case (_, eid) => appearances(eid) += 1 }
    }
    (0 until g.nE).foreach { e =>
      val expected =
        if (h2h.contains(e)) 0
        else Seq(g.src(e), g.dst(e)).count(v => !csr.isHigh(v))
      assert(appearances(e) == expected, s"edge $e")
    }
  }

  test("memory model: paper Section 4.2 formula") {
    val g = TestGraphs.figure4
    val k = 4
    val csr = PrunedCsr.build(g, Some(1.5))
    val expected = 13L * 4 + 6L * 9 * 4 + (9L * (k + 1) + 7) / 8
    assert(csr.memoryFootprintBytes(k) == expected)
  }

  test("memory model shrinks with tau") {
    val g = TestGraphs.powerLaw(500, 3000, gamma = 3.0, seed = 3)
    val m100 = PrunedCsr.build(g, Some(100)).memoryFootprintBytes(32)
    val m1 = PrunedCsr.build(g, Some(1)).memoryFootprintBytes(32)
    val mInf = PrunedCsr.build(g, None).memoryFootprintBytes(32)
    assert(m1 < mInf)
    assert(m100 <= mInf)
    assert(m1 <= m100)
  }

  test("block offsets are summed in 64 bits and a column past the JVM array limit is rejected") {
    val half = PrunedCsr.MaxColumnLength / 2
    // the high-degree vertex 1 contributes no entries, however large its degree
    val fits = PrunedCsr.blockStarts(Array(half, Int.MaxValue, PrunedCsr.MaxColumnLength - half),
      Array(false, true, false))
    assert(fits.toSeq == Seq(0, half, half, PrunedCsr.MaxColumnLength))
    // 2 * Int.MaxValue entries would wrap to a negative Int length
    val err = intercept[IllegalArgumentException] {
      PrunedCsr.blockStarts(Array(Int.MaxValue, Int.MaxValue), Array(false, false))
    }
    assert(err.getMessage.contains("column entries"))
    intercept[IllegalArgumentException](
      PrunedCsr.blockStarts(Array(PrunedCsr.MaxColumnLength, 1), Array(false, false)))
  }

  /** `csr` holds exactly what the sequential reference build gives `g`. */
  private def assertMatchesReference(g: GraphData, high: Array[Boolean], csr: PrunedCsr,
                                     label: String): Unit = {
    val (regions, h2h) = CsrView.referenceBuild(g, high)
    val col = new CsrView(csr)
    (0 until g.nV).foreach(v => assert(col.regions(v) == regions(v), s"$label: regions of vertex $v"))
    assert(csr.colLength == regions.map { case (o, i) => o.length + i.length }.sum, s"$label: column length")
    assert(csr.h2hCount == h2h, s"$label: h2h count")
  }

  private def highFlags(g: GraphData, tau: Option[Double]): Array[Boolean] =
    tau.fold(new Array[Boolean](g.nV))(g.highDegree)

  private val Taus = Seq(None, Some(100.0), Some(1.0), Some(1e-3))

  // The build no longer has a parallel threshold: every graph takes the two
  // parallel fill tasks. This keeps the large graph the threshold test used.
  test("a graph above the parallel threshold builds as the sequential reference does") {
    val g = TestGraphs.powerLaw(6000, 40000, gamma = 2.5, seed = 5)
    for (tau <- Taus) {
      val csr = PrunedCsr.build(g, tau)
      assertMatchesReference(g, highFlags(g, tau), csr, s"tau=$tau")
      if (tau.contains(1e-3)) assert(csr.h2hCount == g.nE, "every edge is h2h at tau -> 0")
    }
  }

  // The build's two fill tasks run on the caller's fork/join pool, so pools of
  // 1, 2, 3 and all cores run them one after the other or side by side.
  test("any number of shards builds as the sequential reference does") {
    val graphs = Seq(
      "power-law" -> TestGraphs.powerLaw(500, 3000, gamma = 2.5, seed = 6),
      "3-vertex path" -> TestGraphs.path(3),
      // edges only between odd ids: every even vertex is isolated
      "isolated" -> GraphData.fromEdges(41, (0 until 19).map(v => (2 * v + 1, 2 * v + 3))),
      "empty" -> new GraphData(0, Array.empty, Array.empty),
      "no edges" -> new GraphData(5, Array.empty, Array.empty),
    )
    for (threads <- Seq(1, 2, 3, Runtime.getRuntime.availableProcessors).distinct) {
      val pool = new java.util.concurrent.ForkJoinPool(threads)
      try {
        for ((name, g) <- graphs; tau <- Taus) {
          val csr = pool.submit(() => PrunedCsr.build(g, tau)).get()
          assertMatchesReference(g, highFlags(g, tau), csr, s"$name tau=$tau threads=$threads")
          if (tau.contains(1e-3)) assert(csr.h2hCount == g.nE, s"$name: every edge is h2h at tau -> 0")
        }
      } finally pool.shutdown()
    }
  }

  test("the build allocates on the calling thread no more than its layout plus 4 KiB") {
    val threads = java.lang.management.ManagementFactory.getThreadMXBean
      .asInstanceOf[com.sun.management.ThreadMXBean]
    val g = TestGraphs.powerLaw(6000, 40000, gamma = 2.5, seed = 5)
    for (tau <- Seq(None, Some(100.0), Some(1.0))) {
      var csr = PrunedCsr.build(g, tau)
      // the least of 20 calls after a warm-up one: a single call sometimes reads more
      val allocated = (1 to 20).map { _ =>
        val before = threads.getCurrentThreadAllocatedBytes
        csr = PrunedCsr.build(g, tau)
        threads.getCurrentThreadAllocatedBytes - before
      }.min
      val layout = 4L * (csr.nbr.length + csr.eid.length + csr.blockStart.length +
        csr.outCap.length + csr.outSizeArr.length + csr.inSizeArr.length) + csr.high.length
      assert(allocated <= layout + 4096, s"tau=$tau: $allocated bytes against a $layout-byte layout")
    }
  }

  test("non-positive tau is rejected") {
    intercept[IllegalArgumentException](PrunedCsr.build(TestGraphs.path(3), Some(0.0)))
  }
}
