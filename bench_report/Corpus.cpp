//===- bench_report/Corpus.cpp --------------------------------------------===//

#include "Corpus.h"

using namespace rml::benchreport;

namespace {

//===----------------------------------------------------------------------===//
// Shared basis
//===----------------------------------------------------------------------===//

const char *BasisText = R"BASIS(
fun compose fg = fn x => #1 fg (#2 fg x)
fun composeOpt fg = fn x =>
  case #2 fg x of nil => nil | v :: _ => [#1 fg v]
fun id x = x
fun map f xs = case xs of nil => nil | h :: t => f h :: map f t
fun app f xs = case xs of nil => () | h :: t => (f h; app f t)
fun foldl f acc xs = case xs of nil => acc | h :: t => foldl f (f h acc) t
fun filter p xs =
  case xs of nil => nil
  | h :: t => if p h then h :: filter p t else filter p t
fun append xs ys = case xs of nil => ys | h :: t => h :: append t ys
fun length xs = case xs of nil => 0 | _ :: t => 1 + length t
fun upto a b = if a > b then nil else a :: upto (a + 1) b
fun concatMap f xs =
  case xs of nil => nil | h :: t => append (f h) (concatMap f t)
fun rev xs =
  let fun go acc ys = case ys of nil => acc | h :: t => go (h :: acc) t
  in go nil xs end
)BASIS";

//===----------------------------------------------------------------------===//
// The Figure 9 programs and their results
//===----------------------------------------------------------------------===//

struct RawProgram {
  const char *Name;
  const char *Expected;
  const char *Body;
};

const RawProgram RawSuite[] = {
    // Verified in tests/bench_programs_test.cpp: fib 24.
    {"fib", "46368", R"(
fun fib n = if n < 2 then n else fib (n - 1) + fib (n - 2)
;fib 24
)"},

    // Verified: tak 16 10 4.
    {"tak", "5", R"(
fun tak x y z =
  if y < x
  then tak (tak (x - 1) y z) (tak (y - 1) z x) (tak (z - 1) x y)
  else z
;tak 16 10 4
)"},

    // Verified: ack 2 120 = 2 * 120 + 3.
    {"ack", "243", R"(
fun ack m n =
  if m = 0 then n + 1
  else if n = 0 then ack (m - 1) 1
  else ack (m - 1) (ack m (n - 1))
;ack 2 120
)"},

    // Verified: 60 reversals of a 90-element list, summed lengths.
    {"nrev", "5400", R"(
fun nrev xs = case xs of nil => nil | h :: t => append (nrev t) [h]
fun iter n acc =
  if n = 0 then acc
  else iter (n - 1) (length (nrev (upto 1 90)) + acc)
;iter 60 0
)"},

    // Verified: 20 sorts of 300 elements, summed lengths.
    {"msort", "6000", R"(
fun split xs =
  case xs of nil => (nil, nil)
  | h :: t =>
      (case t of nil => ([h], nil)
       | h2 :: t2 => let val p = split t2
                     in (h :: #1 p, h2 :: #2 p) end)
fun merge xs ys =
  case xs of nil => ys
  | h :: t =>
      (case ys of nil => xs
       | h2 :: t2 =>
           if h < h2 then h :: merge t ys else h2 :: merge xs t2)
fun msort xs =
  case xs of nil => nil
  | h :: t =>
      (case t of nil => xs
       | _ :: _ => let val p = split xs
                   in merge (msort (#1 p)) (msort (#2 p)) end)
fun mklist n = if n = 0 then nil else (n * 1103 mod 911) :: mklist (n - 1)
fun iter n acc =
  if n = 0 then acc
  else iter (n - 1) (length (msort (mklist 300)) + acc)
;iter 20 0
)"},

    // Verified: 20 sorts of 250 elements, summed lengths.
    {"qsort", "5000", R"(
fun qsort xs =
  case xs of nil => nil
  | h :: t =>
      append (qsort (filter (fn x => x < h) t))
             (h :: qsort (filter (fn x => x >= h) t))
fun mklist n = if n = 0 then nil else (n * 761 mod 509) :: mklist (n - 1)
fun iter n acc =
  if n = 0 then acc
  else iter (n - 1) (length (qsort (mklist 250)) + acc)
;iter 20 0
)"},

    // Closed form: a glider keeps its 5 cells through 12 steps.
    {"life", "5", R"(
fun mem x ys = case ys of nil => false | h :: t => h = x orelse mem x t
fun nbrs c = [c - 65, c - 64, c - 63, c - 1, c + 1, c + 63, c + 64, c + 65]
fun uniq xs =
  case xs of nil => nil
  | h :: t => if mem h t then uniq t else h :: uniq t
fun alive board c =
  let val n = length (filter (fn x => mem x board) (nbrs c))
  in if mem c board then n = 2 orelse n = 3 else n = 3 end
fun step board =
  let val cand = uniq (append board (concatMap nbrs board))
  in filter (alive board) cand end
fun gens n board = if n = 0 then board else gens (n - 1) (step board)
(* a glider on a 64-wide torus-free grid *)
;length (gens 12 [2050, 2115, 2177, 2178, 2179])
)"},

    // Transcribed and evaluated independently; `div` truncates toward
    // zero, which the negative products depend on.
    {"mandel", "21053", R"(
fun mand cr ci =
  let fun loop zr zi i =
        if i = 0 then 0
        else
          let val zr2 = zr * zr div 4096
              val zi2 = zi * zi div 4096
          in if zr2 + zi2 > 16384 then i
             else loop (zr2 - zi2 + cr) (2 * zr * zi div 4096 + ci) (i - 1)
          end
  in loop 0 0 24 end
fun row y xs = foldl (fn x => fn a => a + mand (x * 256 - 8192) (y * 256 - 4096)) 0 xs
val cols = upto 0 47
;foldl (fn y => fn a => a + row y cols) 0 (upto 0 31)
)"},

    // Verified: primes below 900.
    {"sieve", "154", R"(
fun sieve xs =
  case xs of nil => nil
  | p :: t => p :: sieve (filter (fn x => x mod p <> 0) t)
;length (sieve (upto 2 900))
)"},

    // Verified: solutions of 6-queens.
    {"queens", "4", R"(
fun safe q qs d =
  case qs of nil => true
  | h :: t => h <> q andalso h <> q + d andalso h <> q - d
              andalso safe q t (d + 1)
fun queens n =
  let fun place k =
        if k = 0 then [nil]
        else concatMap
               (fn qs => map (fn q => q :: qs)
                             (filter (fn q => safe q qs 1) (upto 1 n)))
               (place (k - 1))
  in length (place n) end
;queens 6
)"},

    // Closed form: 40 * (9 one-digit + 51 two-digit numerals).
    {"strings", "4440", R"(
fun build n = if n = 0 then nil else itos n :: build (n - 1)
fun cat xs = foldl (fn s => fn acc => acc ^ s) "" xs
fun iter n acc =
  if n = 0 then acc else iter (n - 1) (size (cat (build 60)) + acc)
;iter 40 0
)"},

    // Transcribed and evaluated independently.
    {"hof", "46309951", R"(
(* composition pipelines: spurious-variable instantiations at boxed types
   (the string pipeline instantiates compose's gamma with a string), but
   every captured value stays live — the common, safe case the paper's
   benchmarks exhibit *)
fun mkpipe n =
  if n = 0 then id
  else compose (fn x => x + 1, compose (fn x => x * 2, mkpipe (n - 1)))
fun decorate s = compose (fn t => t ^ "!", compose (fn t => s ^ t, id))
fun build n = if n = 0 then nil else itos n :: build (n - 1)
fun applyAll f xs = map f xs
val pipe = mkpipe 8
val deco = decorate "<"
val strsum = foldl (fn s => fn a => a + size (deco s)) 0 (build 40)
;strsum + foldl (fn x => fn a => a + x) 0 (applyAll pipe (upto 1 600))
)"},

    // Closed form: 60 * (1 + ... + 700).
    {"refs", "14721000", R"(
fun loop r n = if n = 0 then !r else (r := !r + n; loop r (n - 1))
fun iter k acc =
  if k = 0 then acc else iter (k - 1) (loop (ref 0) 700 + acc)
;iter 60 0
)"},

    // Transcribed and evaluated independently.
    {"exn", "7851", R"(
exception Found of int
fun find p xs =
  (app (fn x => if p x then raise Found x else ()) xs; 0 - 1)
  handle Found v => v
fun iter n acc =
  if n = 0 then acc
  else iter (n - 1) (find (fn x => x * x > n * 40) (upto 1 200) + acc)
;iter 150 0
)"},

    // Transcribed: 300 * the numerator of the 12th convergent.
    {"ratio", "14196300", R"(
(* exact rational arithmetic over pairs, computing continued-fraction
   convergents of sqrt(2) — the paper's ratio benchmark shape: heavy
   small-pair allocation *)
fun gcd a b = if b = 0 then a else gcd b (a mod b)
fun norm r =
  let val g = gcd (#1 r) (#2 r)
  in if g = 0 then r else (#1 r div g, #2 r div g) end
fun radd r s = norm (#1 r * #2 s + #1 s * #2 r, #2 r * #2 s)
fun rinv r = (#2 r, #1 r)
fun conv n =
  if n = 0 then (1, 1)
  else radd (1, 1) (rinv (radd (1, 1) (conv (n - 1))))
fun iter k acc =
  if k = 0 then acc
  else iter (k - 1) (#1 (conv 12) + acc)
;iter 300 0
)"},

    // Transcribed: 20 * the list minimum 3.
    {"msortrf", "60", R"(
(* msort reading its input through a reference (the paper's msort-rf):
   mutation forces the collector to track cross-region stores *)
fun split xs =
  case xs of nil => (nil, nil)
  | h :: t =>
      (case t of nil => ([h], nil)
       | h2 :: t2 => let val p = split t2
                     in (h :: #1 p, h2 :: #2 p) end)
fun merge xs ys =
  case xs of nil => ys
  | h :: t =>
      (case ys of nil => xs
       | h2 :: t2 =>
           if h < h2 then h :: merge t ys else h2 :: merge xs t2)
fun msort xs =
  case xs of nil => nil
  | h :: t =>
      (case t of nil => xs
       | _ :: _ => let val p = split xs
                   in merge (msort (#1 p)) (msort (#2 p)) end)
fun mklist n = if n = 0 then nil else (n * 653 mod 499) :: mklist (n - 1)
fun iter cell n acc =
  if n = 0 then acc
  else (cell := msort (!cell);
        iter cell (n - 1)
             (acc + (case !cell of nil => 0 | h :: _ => h)))
;let val cell = ref (mklist 300) in iter cell 20 0 end
)"},

    // Transcribed and evaluated independently.
    {"minterp", "60", R"(
(* a stack-machine interpreter over int-list programs (opcode 0 pushes
   the next word; 1 adds; 2 multiplies; 3 duplicates) — the shape of the
   paper's larger benchmarks (DLX, vliw): instruction dispatch over boxed
   structures *)
fun exec prog stack =
  case prog of nil => (case stack of nil => 0 | v :: _ => v)
  | op1 :: rest =>
      if op1 = 0
      then (case rest of nil => 0
            | n :: rest2 => exec rest2 (n :: stack))
      else if op1 = 1
      then (case stack of nil => 0
            | a :: s2 => (case s2 of nil => 0
                          | b :: s3 => exec rest ((a + b) :: s3)))
      else if op1 = 2
      then (case stack of nil => 0
            | a :: s2 => (case s2 of nil => 0
                          | b :: s3 => exec rest ((a * b mod 9973) :: s3)))
      else (case stack of nil => 0
            | a :: s2 => exec rest (a :: (a :: s2)))
fun genProg n =
  if n = 0 then [0, 1]
  else if n mod 3 = 0 then 0 :: (n mod 11) :: 3 :: 2 :: genProg (n - 1)
  else if n mod 3 = 1 then 0 :: (n mod 7) :: 1 :: genProg (n - 1)
  else 0 :: (n mod 5) :: 0 :: 2 :: 1 :: 2 :: genProg (n - 1)
fun iter n acc =
  if n = 0 then acc
  else iter (n - 1) (exec (genProg 60) nil + acc)
;iter 60 0
)"},

    // Closed form: every composed closure returns 0.
    {"deadcap", "0", R"(
(* dead-value capture in composed closures, the Figure 1 shape, but each
   closure is consumed before the next collection — safe under every
   strategy, yet rg and rg- place the dead string's letregion differently
   (the paper's diff column) *)
fun mkh u = compose (let val x = "oh" ^ "no"
                     in (fn _ => 0, fn v => x) end)
fun use u = let val h = mkh () in h () end
fun iter n acc =
  if n = 0 then acc
  else let val r = use ()
           val w = work 120
       in iter (n - 1) (acc + r) end
;iter 200 0
)"},

    // Closed form: 8 * (720 permutations * mean head 3.5).
    {"zebra", "20160", R"(
(* constraint-search flavoured: permutations with pruning, list-heavy *)
fun insertAll x xs =
  case xs of nil => [[x]]
  | h :: t => (x :: xs) :: map (fn r => h :: r) (insertAll x t)
fun perms xs =
  case xs of nil => [nil]
  | h :: t => concatMap (insertAll h) (perms t)
fun sumHeads xss = foldl (fn xs => fn a =>
  (case xs of nil => a | h :: _ => a + h)) 0 xss
fun iter n acc =
  if n = 0 then acc else iter (n - 1) (sumHeads (perms (upto 1 6)) + acc)
;iter 8 0
)"},
};

//===----------------------------------------------------------------------===//
// The unsound programs (Figures 1 and 8, Section 4.4)
//===----------------------------------------------------------------------===//

// Figure 1: composing a function that silently discards its argument with
// one returning a dead string captures "ohno" in a closure whose
// (pre-paper) type forgets the string's region.
const char *Figure1 = R"(
fun run u =
  let val h = compose (let val x = "oh" ^ "no"
                       in (fn _ => (), fn () => x) end)
      val w = work 20000
  in h () end
;run ()
)";

// Figure 8: the spurious variable of g is instantiated for the spurious
// variable of compose; only the transitive closure of Section 4.3
// catches the dependency.
const char *Figure8 = R"(
fun g f = compose (let val x = f ()
                   in (fn _ => (), fn () => x) end)
fun run u =
  let val h = g (fn () => "oh" ^ "no")
      val w = work 20000
  in h () end
;run ()
)";

// Section 4.4: a local exception whose argument type mentions a bound type
// variable. Under rg- the string's region is deallocated when poly
// returns, and the collection triggered by work traces a dangling
// pointer through the live exception value.
const char *Section44 = R"(
fun poly (x : 'a) =
  let exception E of 'a
  in E x end
fun run u =
  let val e = poly ("oh" ^ "no")
      val w = work 20000
  in (raise e) handle _ => 0 end
;run ()
)";

} // namespace

const std::vector<CorpusProgram> &rml::benchreport::corpus() {
  static const std::vector<CorpusProgram> Programs = [] {
    std::vector<CorpusProgram> Out;
    for (const RawProgram &Raw : RawSuite)
      Out.push_back({Raw.Name, BasisText + std::string(Raw.Body),
                     Raw.Expected});
    return Out;
  }();
  return Programs;
}

const std::vector<std::pair<std::string, std::string>> &
rml::benchreport::unsoundPrograms() {
  static const std::vector<std::pair<std::string, std::string>> Programs = {
      {"figure1", BasisText + std::string(Figure1)},
      {"figure8", BasisText + std::string(Figure8)},
      {"section4.4", BasisText + std::string(Section44)},
  };
  return Programs;
}
