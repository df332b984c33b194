package repro.core

import org.scalatest.funsuite.AnyFunSuite

import repro.core.functions.Funcs._
import repro.core.search.{LevelQueue, State}

class LevelQueueSpec extends AnyFunSuite {

  private def state(d: Int, assigns: (Int, String)*): State =
    assigns.foldLeft(State.blank(d)) { case (h, (i, c)) => h.assign(i, Const(c)) }

  test("capacity shrinks with the level: max(1, ϱ − i + 1)") {
    val q = new LevelQueue(5)
    assert(q.capacity(0) == 6)
    assert(q.capacity(1) == 5)
    assert(q.capacity(5) == 1)
    assert(q.capacity(9) == 1)
  }

  test("poll returns the globally cheapest state") {
    val q = new LevelQueue(5)
    q.offer(state(3, 0 -> "a"), 10.0)
    q.offer(state(3, 1 -> "b"), 3.0)
    q.offer(state(3, 2 -> "c"), 7.0)
    assert(q.poll()._2 == 3.0)
  }

  test("ties break towards deeper states") {
    val q = new LevelQueue(5)
    val shallow = state(3, 0 -> "a")
    val deep = state(3, 0 -> "a", 1 -> "b")
    q.offer(shallow, 5.0)
    q.offer(deep, 5.0)
    assert(q.poll()._1 == deep)
  }

  test("full level rejects states worse than all residents") {
    val q = new LevelQueue(1) // level-1 capacity is 1
    assert(q.offer(state(3, 0 -> "a"), 1.0))
    assert(!q.offer(state(3, 0 -> "b"), 2.0))
    assert(q.size == 1)
  }

  test("full level evicts the worst resident for a better state") {
    val q = new LevelQueue(1)
    q.offer(state(3, 0 -> "a"), 5.0)
    assert(q.offer(state(3, 0 -> "b"), 1.0))
    assert(q.poll()._2 == 1.0)
    assert(q.isEmpty)
  }

  test("equal cost is 'not worse' and is admitted to a full level") {
    val q = new LevelQueue(1)
    q.offer(state(3, 0 -> "a"), 5.0)
    assert(q.offer(state(3, 0 -> "b"), 5.0))
  }

  test("duplicate states are never re-admitted") {
    val q = new LevelQueue(5)
    val h = state(3, 0 -> "a")
    assert(q.offer(h, 1.0))
    q.poll()
    assert(!q.offer(h, 0.5))
    assert(q.isEmpty)
  }

  test("end states whose greedy maps share their first four entries and size are both admitted") {
    // describe shows a map's first four entries and its size, so the two
    // end states have one signature but are different states.
    val common = Map("a" -> "1", "b" -> "2", "c" -> "3", "d" -> "4")
    val h1 = State.blank(2).assign(0, Const("x")).assign(1, ValueMap(common + ("e" -> "5")))
    val h2 = State.blank(2).assign(0, Const("x")).assign(1, ValueMap(common + ("e" -> "6")))
    val h3 = State.blank(2).assign(0, Const("x")).assign(1, ValueMap(common + ("f" -> "5")))
    assert(h1.signature == h2.signature && h1.signature == h3.signature)
    val q = new LevelQueue(5)
    assert(q.offer(h1, 1.0))
    assert(q.offer(h2, 1.0))
    assert(q.offer(h3, 1.0))
    assert(!q.offer(State.blank(2).assign(0, Const("x")).assign(1, ValueMap(common + ("e" -> "5"))), 0.5))
    assert(q.size == 3)
  }

  test("a null map key and the string \"null\" key make different states") {
    val h1 = State.blank(1).assign(0, ValueMap(Map((null: String) -> "a")))
    val h2 = State.blank(1).assign(0, ValueMap(Map("null" -> "a")))
    assert(h1.signature == h2.signature)
    val q = new LevelQueue(5)
    assert(q.offer(h1, 1.0) && q.offer(h2, 1.0))
  }

  test("different levels have independent bounds") {
    val q = new LevelQueue(2)
    assert(q.offer(state(4, 0 -> "a"), 1.0))
    assert(q.offer(state(4, 1 -> "b"), 2.0)) // level-1 cap = 2
    assert(q.offer(state(4, 0 -> "a", 1 -> "b"), 9.0)) // level-2 cap = 1
    assert(q.size == 3)
  }

  test("H^id start-state pruning: only the best ϱ level-1 states survive") {
    val q = new LevelQueue(5)
    for (i <- 0 until 10) q.offer(state(10, i -> "x"), i.toDouble)
    assert(q.size == 5)
    assert(q.poll()._2 == 0.0)
  }

  test("empty queue reports empty and poll fails") {
    val q = new LevelQueue(3)
    assert(q.isEmpty && !q.nonEmpty)
    intercept[IllegalArgumentException](q.poll())
  }
}
