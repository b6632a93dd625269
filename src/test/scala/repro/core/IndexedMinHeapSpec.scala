package repro.core

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.{Gen, Prop}
import repro.PropHelper

class IndexedMinHeapSpec extends AnyFunSuite with PropHelper {

  test("popMin returns entries in key order") {
    val h = new IndexedMinHeap(10)
    h.insert(3, 30); h.insert(1, 10); h.insert(7, 20)
    assert(h.popMin() == 1)
    assert(h.popMin() == 7)
    assert(h.popMin() == 3)
    assert(!h.nonEmpty)
  }

  test("contains and nonEmpty reflect inserts and pops") {
    val h = new IndexedMinHeap(5)
    assert(!h.nonEmpty)
    h.insert(2, 5)
    assert(h.contains(2) && h.nonEmpty)
    h.popMin()
    assert(!h.contains(2) && !h.nonEmpty)
  }

  test("decrease reorders the heap") {
    val h = new IndexedMinHeap(10)
    h.insert(0, 4); h.insert(1, 2); h.insert(2, 3)
    (0 until 3).foreach(_ => h.decrease(0)) // 4 -> 1
    assert(h.popMin() == 0)
  }

  test("decrease by default delta of one") {
    val h = new IndexedMinHeap(4)
    h.insert(0, 3); h.insert(1, 5)
    h.decrease(1) // 5 -> 4: still above vertex 0
    assert(h.popMin() == 0)
    h.insert(0, 3)
    h.decrease(1); h.decrease(1) // 4 -> 2: now below vertex 0
    assert(h.popMin() == 1)
  }

  test("clear empties the heap and forgets positions") {
    val h = new IndexedMinHeap(8)
    (0 until 8).foreach(v => h.insert(v, v))
    h.clear()
    assert(!h.nonEmpty)
    assert((0 until 8).forall(v => !h.contains(v)))
    h.insert(3, 1) // reinsertion after clear must work
    assert(h.popMin() == 3)
  }

  test("double insert of the same vertex is rejected") {
    val h = new IndexedMinHeap(4)
    h.insert(1, 1)
    intercept[IllegalArgumentException](h.insert(1, 2))
  }

  test("popMin on empty heap is rejected") {
    intercept[IllegalArgumentException](new IndexedMinHeap(4).popMin())
  }

  test("property: drain order matches a sorted reference under inserts+decreases") {
    val gen = for {
      n <- Gen.choose(1, 60)
      // a narrow key range, so that unit decreases often reorder entries
      keys <- Gen.listOfN(n, Gen.choose(0, 20))
      decs <- Gen.listOfN(2 * n, Gen.choose(0, n - 1))
    } yield (keys, decs)
    checkProp(Prop.forAll(gen) { case (keys, decs) =>
      val h = new IndexedMinHeap(keys.size)
      val ref = scala.collection.mutable.Map.empty[Int, Int]
      keys.zipWithIndex.foreach { case (key, v) => h.insert(v, key); ref(v) = key }
      decs.foreach { v => if (v < keys.size) { h.decrease(v); ref(v) -= 1 } }
      val drained = Iterator.continually(if (h.nonEmpty) Some(h.popMin()) else None)
        .takeWhile(_.isDefined).flatten.toList
      val drainedKeys = drained.map(ref)
      drainedKeys == drainedKeys.sorted && drained.toSet == ref.keySet
    })
  }
}
