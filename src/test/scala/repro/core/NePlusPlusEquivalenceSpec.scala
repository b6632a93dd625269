package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs
import scala.collection.mutable.ArrayBuffer

/** `NePlusPlus` runs flat kernels over a per-vertex state array and the
  * CSR's raw columns. These tests hold it to the lazy NE++ loop it replaced,
  * a frozen copy that reads and swap-removes entries through [[CsrView]],
  * which reports accesses by the engine's rule: identical
  * `pids`, `loads`, replica sets, core set, counters, remaining column
  * regions of every non-core vertex, and tracer reports, on a grid of
  * graphs, `k` and `tau`.
  */
class NePlusPlusEquivalenceSpec extends AnyFunSuite {

  /** Frozen copy of the lazy NE++ loop with core/secondary bitsets and
    * `isHigh` tests. Unlike the engine, its clean-up also walks seeds, which
    * are in the core and the secondary set at once; the tracer reports made
    * there are counted in `seedCleanupAccesses`.
    */
  private final class Oracle(csr: PrunedCsr, k: Int, val pids: Array[Int], val loads: Array[Long],
                             val replicas: Array[DenseBitset], counter: Counter) {
    private val g = csr.g
    private val col = new CsrView(csr)
    val core = new DenseBitset(g.nV)
    private val secondary = new DenseBitset(g.nV)
    private val members = new ArrayBuffer[Int]()
    private val heap = new IndexedMinHeap(g.nV)
    private val capacity: Long =
      if (k == 1) Long.MaxValue else (csr.inMemEdgeCount.toLong + k - 1) / k
    private var assigned = 0L
    private var seedPtr = 0
    var seeds = 0L
    var spilled = 0L
    var seedCleanupAccesses = 0L

    def run(): Unit = {
      val total = csr.inMemEdgeCount.toLong
      var i = 0
      while (i < k - 1 && assigned < total) {
        expand(i)
        cleanUp()
        resetSecondary()
        i += 1
      }
      if (assigned < total) assignRemaining(k - 1)
      require(assigned == total, s"oracle assigned $assigned of $total edges")
    }

    private def expand(i: Int): Unit = {
      val total = csr.inMemEdgeCount.toLong
      var exhausted = false
      while (!exhausted && loads(i) < capacity && assigned < total) {
        if (heap.nonEmpty) moveToCore(heap.popMin(), i)
        else {
          val s = nextSeed()
          if (s < 0) exhausted = true else { seeds += 1; moveToCore(s, i) }
        }
      }
    }

    private def nextSeed(): Int = {
      while (seedPtr < g.nV) {
        val v = seedPtr
        if (!core.get(v) && !csr.isHigh(v) && csr.validDegree(v) > 0) return v
        seedPtr += 1
      }
      -1
    }

    private def moveToCore(v: Int, i: Int): Unit = {
      if (secondary.get(v)) secondary.clear(v)
      else secondaryWork(v, i, insertHeap = false)
      core.set(v)
      var idx = col.outStart(v); var end = idx + col.outSize(v)
      while (idx < end) { coreNeighbour(col.nbrAt(idx), i); idx += 1 }
      idx = col.inStart(v); end = idx + col.inSize(v)
      while (idx < end) { coreNeighbour(col.nbrAt(idx), i); idx += 1 }
    }

    private def coreNeighbour(u: Int, i: Int): Unit =
      if (!csr.isHigh(u) && !core.get(u) && !secondary.get(u)) secondaryWork(u, i, insertHeap = true)

    private def secondaryWork(v: Int, i: Int, insertHeap: Boolean): Unit = {
      var dext = 0
      var idx = col.outStart(v); var end = idx + col.outSize(v)
      while (idx < end) { dext += secondaryEntry(v, col.nbrAt(idx), col.eidAt(idx), i); idx += 1 }
      idx = col.inStart(v); end = idx + col.inSize(v)
      while (idx < end) { dext += secondaryEntry(v, col.nbrAt(idx), col.eidAt(idx), i); idx += 1 }
      secondary.set(v)
      members += v
      if (insertHeap) heap.insert(v, dext)
    }

    private def secondaryEntry(v: Int, u: Int, eid: Int, i: Int): Int =
      if (core.get(u) || secondary.get(u) || csr.isHigh(u)) {
        assignEdge(eid, v, u, i)
        if (heap.contains(u)) heap.decrease(u)
        0
      } else 1

    private def assignEdge(eid: Int, a: Int, b: Int, i: Int): Unit = {
      require(pids(eid) < 0, s"oracle: double assignment of edge $eid")
      var p = i
      while (p < k - 1 && loads(p) >= capacity) p += 1
      if (p != i) spilled += 1
      pids(eid) = p
      loads(p) += 1
      assigned += 1
      replicas(p).set(a)
      replicas(p).set(b)
    }

    private def cleanUp(): Unit = {
      for (v <- members if secondary.get(v)) {
        val before = counter.accesses
        var idx = col.outStart(v)
        while (idx < col.outStart(v) + col.outSize(v)) {
          val u = col.nbrAt(idx)
          if (core.get(u) || secondary.get(u) || csr.isHigh(u)) col.removeOutAt(v, idx)
          else idx += 1
        }
        idx = col.inStart(v)
        while (idx < col.inStart(v) + col.inSize(v)) {
          val u = col.nbrAt(idx)
          if (core.get(u) || secondary.get(u) || csr.isHigh(u)) col.removeInAt(v, idx)
          else idx += 1
        }
        if (core.get(v)) seedCleanupAccesses += counter.accesses - before
      }
    }

    private def resetSecondary(): Unit = {
      members.foreach(secondary.clear)
      members.clear()
      heap.clear()
    }

    private def assignRemaining(last: Int): Unit = {
      for (v <- 0 until g.nV if !core.get(v) && !csr.isHigh(v)) {
        var idx = col.outStart(v); var end = idx + col.outSize(v)
        while (idx < end) { assignLast(col.eidAt(idx), v, col.nbrAt(idx), last); idx += 1 }
        idx = col.inStart(v); end = idx + col.inSize(v)
        while (idx < end) {
          val u = col.nbrAt(idx); val eid = col.eidAt(idx)
          if (csr.isHigh(u)) assignLast(eid, v, u, last)
          idx += 1
        }
      }
    }

    private def assignLast(eid: Int, a: Int, b: Int, last: Int): Unit = {
      require(pids(eid) < 0, s"oracle: double assignment of edge $eid in last partition")
      pids(eid) = last
      loads(last) += 1
      assigned += 1
      replicas(last).set(a)
      replicas(last).set(b)
    }
  }

  private final class Counter extends AccessTracer {
    var accesses = 0L
    override def onAccess(entryIndex: Int): Unit = accesses += 1
  }

  /** Run both on fresh CSRs of `g`; assert identical results. */
  private def assertSame(g: GraphData, k: Int, tau: Option[Double], label: String): Unit = {
    val expectedCsr = PrunedCsr.build(g, tau)
    val expectedCounter = new Counter
    expectedCsr.tracer = expectedCounter
    val oracle = new Oracle(expectedCsr, k, Array.fill(g.nE)(-1), new Array[Long](k),
      Array.fill(k)(new DenseBitset(g.nV)), expectedCounter)
    oracle.run()

    val csr = PrunedCsr.build(g, tau)
    val counter = new Counter
    csr.tracer = counter
    val pids = Array.fill(g.nE)(-1)
    val loads = new Array[Long](k)
    val replicas = Array.fill(k)(new DenseBitset(g.nV))
    val engine = new NePlusPlus(csr, k, pids, loads, replicas, EdgeRemoval.Lazy)
    engine.run()

    assert(pids.sameElements(oracle.pids), s"pids differ: $label")
    assert(loads.sameElements(oracle.loads), s"loads differ: $label")
    (0 until k).foreach { p =>
      val (a, e) = (replicas(p), oracle.replicas(p))
      assert((0 until a.wordCount).forall(w => a.word(w) == e.word(w)),
        s"replica set of partition $p differs: $label")
    }
    assert(engine.coreSize == oracle.core.cardinality, s"core size differs: $label")
    assert(engine.seedsTaken == oracle.seeds, s"seed count differs: $label")
    assert(engine.spilledEdges == oracle.spilled, s"spill count differs: $label")
    assert(counter.accesses == expectedCounter.accesses - oracle.seedCleanupAccesses,
      s"tracer reports differ beyond the seeds' clean-up: $label")
    val (actualCol, expectedCol) = (new CsrView(csr), new CsrView(expectedCsr))
    (0 until g.nV).filterNot(oracle.core.get).foreach { v =>
      assert(actualCol.regions(v) == expectedCol.regions(v), s"column regions of vertex $v differ: $label")
    }
  }

  private val ks = Seq(1, 2, 3, 7, 32)
  private val taus = Seq(Option.empty[Double], Some(0.5), Some(1.0), Some(100.0))

  private def assertGrid(name: String, g: GraphData): Unit =
    for (k <- ks; tau <- taus) assertSame(g, k, tau, s"$name k=$k tau=${tau.getOrElse("unpruned")}")

  test("a hub-first power-law graph that spills matches the frozen loop") {
    // TestGraphs.powerLaw gives the lowest ids the highest degrees, so the
    // sequential seed scan starts at the hubs (NePlusPlusSpec checks it spills).
    assertGrid("hub-first", TestGraphs.powerLaw(600, 3600, gamma = 2.5, seed = 401))
  }

  test("a graph whose partitions overflow the pids write-back buffer matches the frozen loop") {
    // at k = 2 the first partition takes 10,000 edges, more than one
    // 4096-entry write-back batch
    assertGrid("large hub-first", TestGraphs.powerLaw(3000, 20000, gamma = 2.5, seed = 405))
  }

  test("random graphs match the frozen loop") {
    assertGrid("random sparse", TestGraphs.random(300, 900, seed = 402))
    assertGrid("random dense", TestGraphs.random(60, 600, seed = 403))
  }

  test("star, path and two cliques match the frozen loop") {
    assertGrid("star", TestGraphs.star(40))
    assertGrid("path", TestGraphs.path(50))
    assertGrid("two cliques", TestGraphs.twoCliques(9))
  }

  test("a graph with isolated vertices matches the frozen loop") {
    // edges only between odd ids: every even vertex is isolated
    val base = TestGraphs.random(100, 300, seed = 404)
    val g = GraphData.fromEdges(201, (0 until base.nE).map(e => (2 * base.src(e) + 1, 2 * base.dst(e) + 1)))
    assertGrid("isolated", g)
  }
}
