package repro.paging

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs
import repro.core._

class PagingSimulatorSpec extends AnyFunSuite {

  test("sequential scan within the resident budget faults once per page") {
    val sim = new PagingSimulator(residentPages = 10)
    // 4 KiB pages at 4 bytes/entry ⇒ 1024 entries per page; scan 5 pages
    (0 until 5 * 1024).foreach(sim.onAccess)
    assert(sim.faults == 5)
    assert(sim.accesses == 5 * 1024)
    // re-scan: everything resident, no new faults
    (0 until 5 * 1024).foreach(sim.onAccess)
    assert(sim.faults == 5)
  }

  test("cyclic scan larger than the budget thrashes (LRU worst case)") {
    val sim = new PagingSimulator(residentPages = 2)
    val pages = 4
    (0 until 3) foreach { _ =>
      (0 until pages).foreach(p => sim.onAccess(p * 1024))
    }
    // every access misses: LRU evicts exactly the page needed next
    assert(sim.faults == 3L * pages)
  }

  test("repeated access to one hot page faults once") {
    val sim = new PagingSimulator(residentPages = 1)
    (0 until 100).foreach(_ => sim.onAccess(7))
    assert(sim.faults == 1 && sim.accesses == 100)
  }

  test("larger budgets never fault more (inclusion on the same trace)") {
    val trace = {
      val rnd = new scala.util.Random(9)
      Array.fill(5000)(rnd.nextInt(40 * 1024))
    }
    val faults = Seq(2, 8, 32, 128).map { pages =>
      val sim = new PagingSimulator(pages)
      trace.foreach(sim.onAccess)
      sim.faults
    }
    assert(faults == faults.sorted.reverse, s"faults must be non-increasing: $faults")
  }

  test("residentPagesFor subtracts the fixed structures and floors at one page") {
    assert(PagingSimulator.residentPagesFor(10 * 4096, 2 * 4096) == 8)
    assert(PagingSimulator.residentPagesFor(1000, 100000) == 1)
  }

  test("modelled runtime adds SSD latency per fault") {
    assert(PagingSimulator.modelledRuntimeMs(100, 0) == 100)
    assert(PagingSimulator.modelledRuntimeMs(100, 1000) == 160)
  }

  test("zero resident pages is rejected") {
    intercept[IllegalArgumentException](new PagingSimulator(0))
  }

  test("NE++ under a tight simulated budget faults more than under a loose one") {
    val g = TestGraphs.powerLaw(400, 2000, gamma = 3.0, seed = 80)
    def faultsWith(pages: Int): Long = {
      val csr = PrunedCsr.build(g, Some(100.0))
      val sim = new PagingSimulator(pages)
      csr.tracer = sim
      val pids = Array.fill(g.nE)(-1)
      new NePlusPlus(csr, 8, pids, new Array[Long](8),
        Array.fill(8)(new DenseBitset(g.nV)), EdgeRemoval.Lazy).run()
      sim.faults
    }
    val tight = faultsWith(1)
    val loose = faultsWith(4096)
    assert(tight > loose, s"tight=$tight loose=$loose")
    // with the whole column array resident, only cold faults remain
    val csr = PrunedCsr.build(g, Some(100.0))
    assert(loose <= csr.colLength / 1024 + 1)
  }
}
