package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs

class InformedStreamingSpec extends AnyFunSuite {

  private def fresh(g: GraphData, k: Int) =
    (Array.fill(g.nE)(-1), new Array[Long](k), Array.fill(k)(new DenseBitset(g.nV)))

  test("streams every requested edge exactly once") {
    val g = TestGraphs.random(30, 100, seed = 21)
    val (pids, loads, replicas) = fresh(g, 4)
    new InformedStreaming(g, 4, pids, loads, replicas).run(Array.range(0, g.nE))
    assert(pids.forall(p => p >= 0 && p < 4))
    assert(loads.sum == g.nE)
  }

  test("prefers a partition that already replicates both endpoints") {
    val g = GraphData.fromEdges(4, Seq((0, 1)))
    val (pids, loads, replicas) = fresh(g, 3)
    replicas(2).set(0); replicas(2).set(1) // both endpoints live on partition 2
    loads(0) = 0; loads(1) = 0; loads(2) = 0
    new InformedStreaming(g, 3, pids, loads, replicas).run(Array(0))
    assert(pids(0) == 2)
  }

  test("degree-weighted tie-break replicates the higher-degree endpoint") {
    // HDRF: when exactly one endpoint is replicated on each candidate, the
    // partition holding the *lower*-degree endpoint scores higher
    // (g = 1 + (1 - θ) and θ grows with the endpoint's own degree).
    val g = GraphData.fromEdges(5, Seq((0, 1), (0, 2), (0, 3), (0, 4)))
    // degrees: d(0)=4, d(1)=1
    val (pids, loads, replicas) = fresh(g, 2)
    replicas(0).set(0) // partition 0 holds the hub
    replicas(1).set(1) // partition 1 holds the leaf
    new InformedStreaming(g, 2, pids, loads, replicas).run(Array(0)) // edge (0,1)
    assert(pids(0) == 1, "leaf-holding partition must win the HDRF score")
  }

  test("capacity bound diverts overflow to other partitions") {
    val g = TestGraphs.random(20, 60, seed = 22)
    val k = 3
    val (pids, loads, replicas) = fresh(g, k)
    val cap = math.ceil(1.05 * g.nE / k).toLong // 21, so 3 partitions hold 63 edges
    // partition 0 holds every vertex, so HDRF prefers it until it is full;
    // with 3 edges preset there, the 60 streamed edges fill all three exactly
    (0 until g.nV).foreach(v => replicas(0).set(v))
    loads(0) = 3
    new InformedStreaming(g, k, pids, loads, replicas).run(Array.range(0, g.nE))
    assert(pids.take(18).forall(_ == 0) && pids.drop(18).forall(_ != 0), pids.mkString(","))
    assert(loads.toSeq == Seq(cap, cap, cap))
  }

  test("pre-assigned edges are rejected (double assignment guard)") {
    val g = TestGraphs.random(10, 20, seed = 23)
    val (pids, loads, replicas) = fresh(g, 2)
    pids(0) = 1
    intercept[IllegalArgumentException] {
      new InformedStreaming(g, 2, pids, loads, replicas).run(Array(0))
    }
  }

  test("updates replicas and loads as it streams") {
    val g = GraphData.fromEdges(3, Seq((0, 1), (1, 2)))
    val (pids, loads, replicas) = fresh(g, 2)
    new InformedStreaming(g, 2, pids, loads, replicas).run(Array(0, 1))
    assert(loads.sum == 2)
    (0 to 1).foreach { e =>
      assert(replicas(pids(e)).get(g.src(e)) && replicas(pids(e)).get(g.dst(e)))
    }
  }

  test("HDRF scoring: replication term dominates an empty-balance field") {
    val s1 = HdrfScoring.score(5, 5, replicatedU = true, replicatedV = true,
      load = 0, minLoad = 0, maxLoad = 0)
    val s2 = HdrfScoring.score(5, 5, replicatedU = false, replicatedV = false,
      load = 0, minLoad = 0, maxLoad = 0)
    assert(s1 > s2)
  }

  test("HDRF scoring: balance term favours the lighter partition") {
    val light = HdrfScoring.score(3, 3, replicatedU = false, replicatedV = false,
      load = 0, minLoad = 0, maxLoad = 10)
    val heavy = HdrfScoring.score(3, 3, replicatedU = false, replicatedV = false,
      load = 10, minLoad = 0, maxLoad = 10)
    assert(light > heavy)
  }

  test("HDRF scoring: zero degrees do not divide by zero") {
    val s = HdrfScoring.score(0, 0, replicatedU = true, replicatedV = false,
      load = 0, minLoad = 0, maxLoad = 0)
    assert(!s.isNaN && !s.isInfinite)
  }
}
