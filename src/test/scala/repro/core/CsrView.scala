package repro.core

/** Test-side access to a [[PrunedCsr]]'s column by vertex region, over its
  * `private[core]` layout arrays. Reads and swap-removals report to
  * `csr.tracer` by the rule [[NePlusPlus]] follows: one report per entry read
  * ([[nbrAt]]; [[eidAt]] reads the same entry), and two per swap-removal, for
  * the removed entry and the region's last entry.
  */
final class CsrView(csr: PrunedCsr) {

  def outStart(v: Int): Int = csr.blockStart(v)
  def outSize(v: Int): Int = csr.outSizeArr(v)
  def inStart(v: Int): Int = csr.blockStart(v) + csr.outCap(v)
  def inSize(v: Int): Int = csr.inSizeArr(v)

  def nbrAt(i: Int): Int = { report(i); csr.nbr(i) }
  def eidAt(i: Int): Int = csr.eid(i)

  /** Swap-remove the out-entry at absolute index `i` of vertex `v`. */
  def removeOutAt(v: Int, i: Int): Unit = csr.outSizeArr(v) = remove(outStart(v), outSize(v), i)

  /** Swap-remove the in-entry at absolute index `i` of vertex `v`. */
  def removeInAt(v: Int, i: Int): Unit = csr.inSizeArr(v) = remove(inStart(v), inSize(v), i)

  /** `v`'s `(neighbour, edge id)` out- and in-entries, without tracer reports. */
  def regions(v: Int): (Seq[(Int, Int)], Seq[(Int, Int)]) = {
    def entries(from: Int, size: Int) = (from until from + size).map(i => (csr.nbr(i), csr.eid(i)))
    (entries(outStart(v), outSize(v)), entries(inStart(v), inSize(v)))
  }

  /** Move the last entry of `[from, from + size)` over entry `i`; returns the new size. */
  private def remove(from: Int, size: Int, i: Int): Int = {
    val last = from + size - 1
    require(i >= from && i <= last, s"index $i outside the region [$from, ${last + 1})")
    report(i); report(last)
    csr.nbr(i) = csr.nbr(last)
    csr.eid(i) = csr.eid(last)
    size - 1
  }

  private def report(i: Int): Unit = if (csr.tracer ne null) csr.tracer.onAccess(i)
}

object CsrView {

  /** What a sequential build gives `g` with high-degree flags
    * `high`: each vertex's out-entries `(dst, e)` and in-entries `(src, e)`
    * in ascending edge-id order (none for a high-degree vertex), and the
    * number of h2h edges.
    */
  def referenceBuild(g: GraphData, high: Array[Boolean]): (IndexedSeq[(Seq[(Int, Int)], Seq[(Int, Int)])], Int) = {
    val out = Array.fill(g.nV)(Seq.newBuilder[(Int, Int)])
    val in = Array.fill(g.nV)(Seq.newBuilder[(Int, Int)])
    var h2h = 0
    for (e <- 0 until g.nE) {
      val (u, v) = (g.src(e), g.dst(e))
      if (high(u) && high(v)) h2h += 1
      else {
        if (!high(u)) out(u) += ((v, e))
        if (!high(v)) in(v) += ((u, e))
      }
    }
    (out.indices.map(v => (out(v).result(), in(v).result())), h2h)
  }
}
