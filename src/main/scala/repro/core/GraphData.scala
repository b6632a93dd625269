package repro.core

import org.apache.spark.sql.DataFrame

/** Driver-side representation of an undirected, unweighted graph as a binary
  * edge list with dense 32-bit vertex ids — the exact input format the paper
  * feeds to HEP, HDRF, DBH, NE and SNE (Appendix A: "binary edge list with
  * 32-bit vertex ids").
  *
  * The edge at index `eid` is `(src(eid), dst(eid))`; the orientation of the
  * pair is meaningful (NE++ assigns low/low edges "from the perspective of the
  * left-hand side vertex", Section 3.2.3) even though the graph is undirected.
  * The list is expected to be simple: no self loops, each undirected edge
  * present exactly once (the generators in [[repro.SynthGraphs]] guarantee
  * this and tests assert it). The constructor rejects ids outside `[0, nV)`,
  * self loops and an undirected edge given twice, as `(u, v)` or `(v, u)`.
  *
  * @param nV  number of vertices; ids are `[0, nV)`
  * @param src left endpoints, indexed by edge id
  * @param dst right endpoints, indexed by edge id
  */
final class GraphData(val nV: Int, val src: Array[Int], val dst: Array[Int]) {
  require(nV >= 0, s"vertex count must be non-negative, got $nV")
  require(src.length == dst.length, "src/dst arrays must align")
  locally {
    val keys = new Array[Long](src.length)
    var e = 0
    while (e < src.length) {
      val u = src(e); val v = dst(e)
      require(u >= 0 && u < nV && v >= 0 && v < nV,
        s"edge $e ($u, $v) has an endpoint outside the vertex range [0, $nV)")
      require(u != v, s"edge $e is a self loop ($u, $v); the edge list must be simple")
      keys(e) = undirectedKey(e)
      e += 1
    }
    java.util.Arrays.sort(keys)
    var i = 1
    while (i < keys.length) {
      require(keys(i) != keys(i - 1), {
        val Seq(a, b) = src.indices.filter(undirectedKey(_) == keys(i)).take(2)
        s"edges $a (${src(a)}, ${dst(a)}) and $b (${src(b)}, ${dst(b)}) are the same " +
          "undirected edge; the edge list must be simple"
      })
      i += 1
    }
  }

  /** `(min, max)` of edge `e`'s endpoints, packed into one `Long`. */
  private def undirectedKey(e: Int): Long =
    (math.min(src(e), dst(e)).toLong << 32) | math.max(src(e), dst(e))

  /** Number of edges. */
  val nE: Int = src.length

  /** Undirected degree of every vertex (each edge counts at both endpoints). */
  lazy val degrees: Array[Int] = {
    val d = new Array[Int](nV)
    var e = 0
    while (e < nE) { d(src(e)) += 1; d(dst(e)) += 1; e += 1 }
    d
  }

  /** Mean degree `2|E| / |V|` (the paper's `∅_d`). */
  def meanDegree: Double = if (nV == 0) 0.0 else 2.0 * nE / nV

  /** The paper's high-degree rule for threshold factor `tau`: entry `v` is
    * true iff `d(v) > tau * meanDegree`.
    */
  def highDegree(tau: Double): Array[Boolean] = {
    val d = degrees
    val threshold = tau * meanDegree
    val high = new Array[Boolean](nV)
    var v = 0
    while (v < nV) { high(v) = d(v) > threshold; v += 1 }
    high
  }
}

object GraphData {

  /** Collect a two-column (`src`, `dst`) DataFrame of integral ids into a
    * driver-side [[GraphData]]. Vertex ids must already be dense in
    * `[0, nV)`; the constructor rejects any outside that range.
    */
  def fromDF(df: DataFrame, nV: Int): GraphData = {
    val rows = df.select("src", "dst").collect()
    val s = new Array[Int](rows.length)
    val d = new Array[Int](rows.length)
    var i = 0
    while (i < rows.length) {
      val r = rows(i)
      s(i) = asInt(r.get(0)); d(i) = asInt(r.get(1))
      i += 1
    }
    new GraphData(nV, s, d)
  }

  /** Convenience constructor for tests. */
  def fromEdges(nV: Int, edges: Seq[(Int, Int)]): GraphData =
    new GraphData(nV, edges.map(_._1).toArray, edges.map(_._2).toArray)

  private def asInt(x: Any): Int = x match {
    case i: Int  => i
    case l: Long => require(l >= Int.MinValue && l <= Int.MaxValue, s"id $l overflows Int"); l.toInt
    case other   => throw new IllegalArgumentException(s"unsupported id type: $other")
  }
}
