package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs
import repro.baselines.SimpleHybrid
import repro.harness.TableHarness

/** The `k ≥ 1` contract of [[EdgePartitioner.partition]]: every partitioner
  * rejects any other `k` with an `IllegalArgumentException` naming it, on a
  * small graph and on the empty graph alike, before its algorithm runs. Every
  * partitioner is total on the contract's edge cases: k > |E|, isolated
  * vertices, and for the hybrids τ → 0.
  */
class PartitionerContractSpec extends AnyFunSuite {

  private def partitioners: Seq[EdgePartitioner] =
    TableHarness.allPartitioners() ++ Seq(new Hep(0.5), new SimpleHybrid(1.0))

  private val graphs = Seq(
    "small" -> TestGraphs.powerLaw(60, 150, gamma = 2.5, seed = 501),
    "empty" -> GraphData.fromEdges(4, Nil),
  )

  for ((gname, g) <- graphs; k <- Seq(0, -1)) {
    test(s"every partitioner rejects k = $k on the $gname graph") {
      partitioners.foreach { algo =>
        val e = intercept[IllegalArgumentException](algo.partition(g, k))
        assert(e.getMessage.contains(algo.name) && e.getMessage.contains(s"got $k"),
          s"${algo.name}: ${e.getMessage}")
      }
    }
  }

  test("k = 1 is accepted everywhere, on the empty graph too") {
    for ((_, g) <- graphs; algo <- partitioners) {
      val res = algo.partition(g, 1)
      Partitioners.validate(g, res)
      assert(res.k == 1 && res.pids.forall(_ == 0), algo.name)
    }
  }

  private def assertValidEverywhere(g: GraphData, k: Int, algos: Seq[EdgePartitioner] = partitioners): Unit =
    algos.foreach(algo => Partitioners.validate(g, algo.partition(g, k)))

  test("k > |E| is accepted everywhere") {
    assertValidEverywhere(GraphData.fromEdges(5, Seq((0, 1), (1, 2), (3, 4))), 7)
  }

  test("a graph with isolated vertices is accepted everywhere") {
    // edges only between odd ids: every even vertex is isolated
    val base = TestGraphs.powerLaw(60, 150, gamma = 2.5, seed = 502)
    val g = GraphData.fromEdges(121, (0 until base.nE).map(e => (2 * base.src(e) + 1, 2 * base.dst(e) + 1)))
    assert(g.degrees.count(_ == 0) > 60)
    for (k <- Seq(2, 7)) assertValidEverywhere(g, k)
  }

  test("tau -> 0 makes every edge h2h, and the hybrids still partition it") {
    val g = graphs.head._2
    assert(PrunedCsr.build(g, Some(1e-3)).h2hCount == g.nE)
    for (k <- Seq(2, 7)) assertValidEverywhere(g, k, Seq(new Hep(1e-3), new SimpleHybrid(1e-3)))
  }

  test("Hep and SimpleHybrid name tau the same way") {
    for (tau <- Seq(100.0, 0.5, 1e20))
      assert(new Hep(tau).name.stripPrefix("HEP-") ==
        new SimpleHybrid(tau).name.stripPrefix("SimpleHybrid-"), s"tau=$tau")
    assert(new SimpleHybrid(1e20).name == "SimpleHybrid-1.0E20")
  }
}
