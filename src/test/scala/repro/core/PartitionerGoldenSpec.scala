package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs
import repro.baselines.SimpleHybrid
import repro.harness.TableHarness

/** Golden outputs: `java.util.Arrays.hashCode(pids)` of every partitioner on
  * fixed (graph, k) inputs. A refactor that claims to keep the assignments
  * must keep these hashes; a deliberate change of an algorithm's output must
  * update them and say why.
  */
class PartitionerGoldenSpec extends AnyFunSuite {

  private val graphs = Seq(
    "powerLaw" -> TestGraphs.powerLaw(600, 3600, gamma = 2.5, seed = 401), // hub-first ids
    "random" -> TestGraphs.random(300, 900, seed = 402),
  )
  private val ks = Seq(2, 7, 32)

  private def partitioners: Seq[EdgePartitioner] =
    TableHarness.allPartitioners() ++ Seq(new Hep(0.5), new SimpleHybrid(1.0))

  /** Hashes per partitioner, in the order (graph, k) of `graphs` × `ks`. */
  private val golden: Map[String, Seq[Int]] = Map(
    "HEP-100" -> Seq(812247553, -893073262, -1068412605, -688404029, 532188714, -878543749),
    "HEP-10" -> Seq(831665483, 915972324, 901396737, -688404029, 532188714, -878543749),
    "HEP-1" -> Seq(-1599891401, -230527549, 1172490794, -95988357, 71954294, 473252765),
    "NE" -> Seq(1499906561, 1629311678, 961251105, 109433837, 377671264, -1316955971),
    "SNE" -> Seq(1801326593, -1035488718, -508951044, -284303107, -1981465355, -1462483004),
    "HDRF" -> Seq(-342852093, 1861932667, 1322829517, -962020087, -2124602465, -1323621432),
    "DBH" -> Seq(352500504, -1994634488, -590924222, 1783770296, -1415466658, 1835031008),
    "Greedy" -> Seq(1701405813, 1307851180, -123280855, 947088596, -1200113017, 836781904),
    "Grid" -> Seq(567104445, -1785099104, -1298945560, 1884486711, 36566634, -1777288328),
    "Random" -> Seq(-1824391200, 1657328251, 301026324, -1888736122, -2011401947, 1515382542),
    "HEP-0.5" -> Seq(956879004, -950618250, -758437319, -681749581, 112286950, 294818884),
    "SimpleHybrid-1" -> Seq(-114006281, 1585960405, -259109147, -1053590981, -1079085888, 1690194240),
  )

  test("every partitioner of the line-up has golden hashes") {
    assert(partitioners.map(_.name).toSet == golden.keySet)
  }

  partitioners.foreach { algo =>
    test(s"${algo.name} assignments match the golden hashes") {
      val cases = for ((gName, g) <- graphs; k <- ks) yield {
        val res = algo.partition(g, k)
        Partitioners.validate(g, res)
        (s"$gName k=$k", java.util.Arrays.hashCode(res.pids))
      }
      val expected = golden(algo.name)
      cases.zip(expected).foreach { case ((label, actual), want) =>
        assert(actual == want, s"${algo.name} on $label")
      }
    }
  }
}
