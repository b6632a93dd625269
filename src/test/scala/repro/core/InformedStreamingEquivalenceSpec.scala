package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs
import scala.util.Random

/** `InformedStreaming` scores at most four candidate partitions per edge.
  * These tests hold it to the full-scan HDRF loop it replaced: identical
  * `pids`, `loads` and replica sets on a grid of graphs, `k` (including
  * partial 64-bit mask words), `tau`, cold and NE++-seeded state, and preset
  * loads that reach the `α = 1.05` capacity.
  * NE++-seeded streams also run through `run(csr)`, which reads the h2h
  * edges from the edge list instead of an explicit id list.
  */
class InformedStreamingEquivalenceSpec extends AnyFunSuite {

  private final class State(val pids: Array[Int], val loads: Array[Long], val replicas: Array[DenseBitset]) {
    def deepCopy(): State = new State(pids.clone(), loads.clone(), replicas.map { r =>
      val c = new DenseBitset(r.n)
      (0 until r.n).foreach(v => if (r.get(v)) c.set(v))
      c
    })
  }

  private def empty(g: GraphData, k: Int) =
    new State(Array.fill(g.nE)(-1), new Array[Long](k), Array.fill(k)(new DenseBitset(g.nV)))

  /** Frozen copy of the full-scan streaming loop: score every partition,
    * keep the first maximum, fall back to the least-loaded (lowest `p`)
    * partition when all are full. Returns the number of fallbacks. It keeps
    * its own copy of the capacity formula, so a change to
    * `Partitioners.capacity` shows up here as a mismatch.
    */
  private def fullScan(g: GraphData, k: Int, s: State, edgeIds: Array[Int]): Long = {
    val capacity = math.ceil(1.05 * g.nE / k.toDouble).toLong
    val deg = g.degrees
    var fallbacks = 0L
    for (eid <- edgeIds) {
      val u = g.src(eid); val v = g.dst(eid)
      val minLoad = s.loads.min; val maxLoad = s.loads.max
      var best = -1
      var bestScore = Double.NegativeInfinity
      for (p <- 0 until k if s.loads(p) < capacity) {
        val sc = HdrfScoring.score(deg(u), deg(v), s.replicas(p).get(u), s.replicas(p).get(v),
          s.loads(p), minLoad, maxLoad)
        if (sc > bestScore) { bestScore = sc; best = p }
      }
      if (best < 0) {
        fallbacks += 1
        for (q <- 0 until k) if (best < 0 || s.loads(q) < s.loads(best)) best = q
      }
      s.pids(eid) = best
      s.loads(best) += 1
      s.replicas(best).set(u)
      s.replicas(best).set(v)
    }
    fallbacks
  }

  /** Stream `edgeIds` from `start` with both engines; assert identical results.
    * Given the `csr` whose h2h edges `edgeIds` are, also assert that
    * `run(csr)` reproduces the explicit-list run.
    */
  private def assertSame(g: GraphData, k: Int, start: State, edgeIds: Array[Int], label: String,
                         csr: PrunedCsr = null): Long = {
    val expected = start.deepCopy()
    val expectedFallbacks = fullScan(g, k, expected, edgeIds)
    val actual = start.deepCopy()
    val engine = new InformedStreaming(g, k, actual.pids, actual.loads, actual.replicas)
    engine.run(edgeIds)
    assertSameState(k, actual, expected, label)
    assert(engine.allFullFallbacks == expectedFallbacks, s"fallback count differs: $label")
    if (csr ne null) {
      val streamed = start.deepCopy()
      val fromCsr = new InformedStreaming(g, k, streamed.pids, streamed.loads, streamed.replicas)
      fromCsr.run(csr)
      assertSameState(k, streamed, actual, s"run(csr) vs run(csr.h2hEdgeIds): $label")
      assert(fromCsr.allFullFallbacks == engine.allFullFallbacks,
        s"fallback count differs: run(csr) vs run(csr.h2hEdgeIds): $label")
    }
    expectedFallbacks
  }

  private def assertSameState(k: Int, actual: State, expected: State, label: String): Unit = {
    assert(actual.pids.sameElements(expected.pids), s"pids differ: $label")
    assert(actual.loads.sameElements(expected.loads), s"loads differ: $label")
    (0 until k).foreach { p =>
      val (a, e) = (actual.replicas(p), expected.replicas(p))
      assert(a.cardinality == e.cardinality, s"replica cardinality of partition $p differs: $label")
      assert((0 until a.wordCount).forall(w => a.word(w) == e.word(w)),
        s"replica set of partition $p differs: $label")
    }
  }

  private val graphs = Seq(
    "power-law" -> TestGraphs.powerLaw(500, 3000, gamma = 2.5, seed = 301),
    "random" -> TestGraphs.random(200, 1200, seed = 302),
  )
  private val ks = Seq(1, 2, 3, 7, 32, 64, 65, 130)
  // 1e-3 makes every edge h2h; 1e3 leaves none, so nothing is streamed
  private val taus = Seq(1e-3, 0.3, 1.0, 3.0, 1e3)

  test("cold streams match the full scan on every graph and k") {
    for ((name, g) <- graphs; k <- ks) {
      val order = new Random(k * 31 + g.nE).shuffle((0 until g.nE).toVector).toArray
      assertSame(g, k, empty(g, k), order, s"cold $name k=$k")
    }
  }

  // run(csr) gathers h2h ids block by block; this graph spans several blocks
  private val multiBlock = "multi-block" -> TestGraphs.powerLaw(3000, 13000, gamma = 2.5, seed = 309)

  test("NE++-seeded streams match the full scan") {
    assert(multiBlock._2.nE > 2 * InformedStreaming.GatherBlock)
    for ((name, g) <- graphs :+ multiBlock; k <- ks; tau <- taus) {
      val csr = PrunedCsr.build(g, Some(tau))
      if (tau == taus.head) assert(csr.h2hCount == g.nE, s"$name: tau=$tau must make every edge h2h")
      if (tau == taus.last) assert(csr.h2hCount == 0, s"$name: tau=$tau must leave no h2h edge")
      val seeded = empty(g, k)
      new NePlusPlus(csr, k, seeded.pids, seeded.loads, seeded.replicas, EdgeRemoval.Lazy).run()
      val label = s"seeded $name k=$k tau=$tau"
      val fallbacks = assertSame(g, k, seeded, csr.h2hEdgeIds, label, csr = csr)
      // the loads sum below |E| < k * capacity, so some partition always has room
      assert(fallbacks == 0L, s"$label took $fallbacks all-full fallbacks")
    }
  }

  test("run(csr) rejects a CSR built from a different GraphData") {
    val g = TestGraphs.random(10, 20, seed = 308)
    val copy = new GraphData(g.nV, g.src.clone(), g.dst.clone())
    val s = empty(g, 2)
    val engine = new InformedStreaming(g, 2, s.pids, s.loads, s.replicas)
    val err = intercept[IllegalArgumentException](engine.run(PrunedCsr.build(copy, Some(0.5))))
    assert(err.getMessage.contains("different GraphData"))
    assert(s.pids.forall(_ < 0) && s.loads.forall(_ == 0L))
  }

  test("random tied preset state matches the full scan") {
    val g = TestGraphs.powerLaw(300, 1500, gamma = 2.0, seed = 303)
    val rnd = new Random(304)
    for (k <- ks; round <- 0 until 2) {
      val cap = math.ceil(1.05 * g.nE / k).toLong
      val s = empty(g, k)
      (0 until k).foreach { p =>
        s.loads(p) = rnd.nextInt(4).toLong * cap / 4 // ties, some partitions already at 3/4
        (0 until g.nV).foreach(v => if (rnd.nextInt(k + 1) == 0) s.replicas(p).set(v))
      }
      val half = rnd.shuffle((0 until g.nE).toVector).take(g.nE / 2).toArray
      assertSame(g, k, s, half, s"preset k=$k round=$round")
    }
  }

  test("an empty edge list changes nothing") {
    val g = TestGraphs.random(50, 100, seed = 305)
    for (k <- ks) {
      val s = empty(g, k)
      s.loads(0) = 3; s.replicas(k - 1).set(7)
      assert(assertSame(g, k, s, Array.emptyIntArray, s"empty k=$k") == 0L)
    }
  }

  test("loads preset at capacity take the all-full fallback and count it") {
    val g = TestGraphs.powerLaw(200, 800, gamma = 2.5, seed = 306)
    for (k <- ks) {
      val cap = math.ceil(1.05 * g.nE / k).toLong
      val s = empty(g, k)
      (0 until k).foreach(p => s.loads(p) = cap + (p % 3)) // full, unequal loads
      val edges = Array.range(0, g.nE / 4)
      assert(assertSame(g, k, s, edges, s"full k=$k") == edges.length.toLong)
    }
  }

  test("partitions filling up mid-stream switch to the fallback at the same edge") {
    val g = TestGraphs.random(120, 600, seed = 307)
    for (k <- ks) {
      val cap = math.ceil(1.05 * g.nE / k).toLong
      val s = empty(g, k)
      (0 until k).foreach(p => s.loads(p) = math.max(0L, cap - 1 - (p % 2)))
      val fallbacks = assertSame(g, k, s, Array.range(0, g.nE), s"filling k=$k")
      assert(fallbacks > 0, s"k=$k never reached the all-full state")
    }
  }
}
