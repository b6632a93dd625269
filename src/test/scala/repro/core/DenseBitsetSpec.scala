package repro.core

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.{Gen, Prop}
import repro.PropHelper

class DenseBitsetSpec extends AnyFunSuite with PropHelper {

  test("fresh bitset has no bits set") {
    val b = new DenseBitset(100)
    assert((0 until 100).forall(i => !b.get(i)))
    assert(b.cardinality == 0)
  }

  test("set then get") {
    val b = new DenseBitset(70)
    b.set(0); b.set(63); b.set(64); b.set(69)
    assert(b.get(0) && b.get(63) && b.get(64) && b.get(69))
    assert(!b.get(1) && !b.get(62) && !b.get(65))
    assert(b.cardinality == 4)
  }

  test("clear resets a bit") {
    val b = new DenseBitset(10)
    b.set(3); b.clear(3)
    assert(!b.get(3))
    assert(b.cardinality == 0)
  }

  test("set is idempotent") {
    val b = new DenseBitset(10)
    b.set(5); b.set(5)
    assert(b.cardinality == 1)
  }

  test("clearAll wipes everything") {
    val b = new DenseBitset(200)
    (0 until 200 by 3).foreach(b.set)
    b.clearAll()
    assert(b.cardinality == 0)
  }

  test("out-of-range access is rejected") {
    val b = new DenseBitset(10)
    intercept[IllegalArgumentException](b.get(10))
    intercept[IllegalArgumentException](b.set(-1))
    intercept[IllegalArgumentException](b.clear(11))
  }

  test("zero-capacity bitset is legal") {
    val b = new DenseBitset(0)
    assert(b.cardinality == 0)
  }

  test("negative capacity is rejected") {
    intercept[IllegalArgumentException](new DenseBitset(-1))
  }

  test("footprint matches 64-bit word granularity") {
    assert(new DenseBitset(1).wordCount == 1)
    assert(new DenseBitset(64).wordCount == 1)
    assert(new DenseBitset(65).wordCount == 2)
    assert(new DenseBitset(1024).wordCount == 16)
  }

  test("word-level reads expose the set bits, 64 per word") {
    val b = new DenseBitset(130)
    Seq(0, 5, 63, 64, 127, 128, 129).foreach(b.set)
    assert(b.wordCount == 3)
    assert(b.word(0) == (1L | (1L << 5) | (1L << 63)))
    assert(b.word(1) == (1L | (1L << 63)))
    assert(b.word(2) == 3L)
    b.clear(64)
    assert(b.word(1) == (1L << 63))
    assert(new DenseBitset(0).wordCount == 0)
    assert(new DenseBitset(64).wordCount == 1)
  }

  test("property: agrees with a reference Set[Int] under random operations") {
    val n = 300
    val opsGen = Gen.listOfN(200, Gen.zip(Gen.oneOf(0, 1, 2), Gen.choose(0, n - 1)))
    checkProp(Prop.forAll(opsGen) { ops =>
      val b = new DenseBitset(n)
      val ref = scala.collection.mutable.Set.empty[Int]
      var mirror = true
      ops.foreach {
        case (0, i) => b.set(i); ref += i
        case (1, i) => b.clear(i); ref -= i
        case (_, i) => mirror &&= (b.get(i) == ref.contains(i))
      }
      mirror &&
        b.cardinality == ref.size &&
        (0 until n).forall(i => b.get(i) == ref.contains(i))
    })
  }
}
