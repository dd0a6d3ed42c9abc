(* Sound non-termination proofs for loop-bound faulty runs.

   Fault campaigns spend a large share of their simulated cycles on
   runs whose corrupted loop bound or round counter sends them spinning
   until the watchdog: the drifting state (a chaotically "churned"
   accumulator, a counter stepping past its exit value) defeats exact
   state-recurrence detection, so those runs simulate tens of
   thousands of cycles each just to be classified Timeout.

   This module proves, from a machine parked at a loop head, that the
   run cannot stop before a given cycle limit — in which case the
   caller may classify it exactly as the watchdog would.  The proof is
   a one-period abstract interpretation:

   1. Find the loop period [p] by stepping to the first return of the
      current pc, then record one full period concretely: the pc
      sequence and every memory access (address, width), noting each
      touched RAM cell's value before and after the period.
   2. Build a per-cell model from the observed period delta: Const
      (unchanged), Affine (value b + k·d at period k — an exact,
      non-wrapping linear recurrence hypothesis), or Opaque (anything).
      The observed delta is only a hypothesis; soundness comes from
      step 3.
   3. Execute the recorded period once abstractly over
      {Const, Affine, Bounded, Opaque} values.  The proof succeeds iff
      every branch outcome is decided constant for all periods within
      the horizon, every memory address is exact (or provably confined
      to RAM and aligned), no instruction can trap, and the period's
      end state reproduces the model advanced by one period.  By
      induction the machine then executes the same pc sequence for the
      whole horizon without stopping.

   Serial output and detection events emitted inside the loop are not
   modelled: the proof's only legitimate use is classifying the run as
   [Cycle_limit], an outcome that depends on neither. *)

type abs =
  | Const of int (* exact unsigned 32-bit value, the same every period *)
  | Affine of int * int
      (* (b, d): exactly b + k·d at period k; validated non-wrapping
         over the horizon, d <> 0 *)
  | Bounded of int * int * int
      (* (lo, hi, step): some value in {lo, lo+step, …} ∩ [lo, hi];
         may differ from period to period *)
  | Opaque

exception Abort
exception Restart

let abort () = raise Abort

let two32 = 0x1_0000_0000
let fits v = v >= 0 && v < two32
let rec gcd a b = if b = 0 then a else gcd b (a mod b)
let gcd a b = max 1 (gcd (abs a) (abs b))

(* Smart constructors: anything unrepresentable degrades to Opaque. *)

let affine ~k_max b d =
  if d = 0 then if fits b then Const b else Opaque
  else
    let e = b + (k_max * d) in
    if fits b && fits e then Affine (b, d)
    else if b < 0 && e < 0 && b + two32 >= 0 && e + two32 >= 0 then
      (* uniformly negative: the 32-bit representation is the same
         affine sequence shifted by 2^32 *)
      Affine (b + two32, d)
    else Opaque

let bounded lo hi step =
  if lo = hi && fits lo then Const lo
  else if fits lo && fits hi && lo < hi then Bounded (lo, hi, max 1 step)
  else Opaque

(* Exact affine view (b, d), if any. *)
let lin = function
  | Const v -> Some (v, 0)
  | Affine (b, d) -> Some (b, d)
  | Bounded _ | Opaque -> None

(* Enclosing interval with a stride witness: every attainable value is
   in [lo, hi] and ≡ lo (mod step). *)
let interval ~k_max = function
  | Const v -> Some (v, v, 1)
  | Affine (b, d) ->
      let e = b + (k_max * d) in
      if d > 0 then Some (b, e, d) else Some (e, b, -d)
  | Bounded (l, h, s) -> Some (l, h, s)
  | Opaque -> None

let mul_exact x y =
  if x = 0 || y = 0 then Some 0
  else
    let p = x * y in
    if p / x = y then Some p else None

(* ------------------------------------------------------------------ *)
(* Branch decision                                                    *)
(* ------------------------------------------------------------------ *)

(* Integer views for comparisons: either an exact affine sequence in k
   or a plain interval, over ℤ (no wrapping — enforced upstream). *)
type zview = Lin of int * int | Rng of int * int

let zbounds ~k_max = function
  | Lin (b, d) ->
      let e = b + (k_max * d) in
      (min b e, max b e)
  | Rng (l, h) -> (l, h)

let zview_u ~k_max v =
  match lin v with
  | Some (b, d) -> Some (Lin (b, d))
  | None -> (
      match interval ~k_max v with
      | Some (l, h, _) -> Some (Rng (l, h))
      | None -> None)

let zshift delta = function
  | Lin (b, d) -> Lin (b + delta, d)
  | Rng (l, h) -> Rng (l + delta, h + delta)

(* Signed view: valid only when the whole range sits on one side of the
   sign boundary, where the signed value is the unsigned one (or
   uniformly shifted by −2^32) — still affine / an interval in ℤ. *)
let zview_s ~k_max v =
  match zview_u ~k_max v with
  | None -> None
  | Some z ->
      let lo, hi = zbounds ~k_max z in
      if hi < 0x8000_0000 then Some z
      else if lo >= 0x8000_0000 then Some (zshift (-two32) z)
      else None

(* a < b for every period in the horizon: Some true/false if constant,
   None if it can change (or is undecidable). *)
let zlt ~k_max a b =
  match (a, b) with
  | Lin (b1, d1), Lin (b2, d2) ->
      (* exact difference — handles correlated operands *)
      let db = b1 - b2 and dd = d1 - d2 in
      let e0 = db and e1 = db + (k_max * dd) in
      if e0 < 0 && e1 < 0 then Some true
      else if e0 >= 0 && e1 >= 0 then Some false
      else None
  | _ ->
      let alo, ahi = zbounds ~k_max a and blo, bhi = zbounds ~k_max b in
      if ahi < blo then Some true
      else if alo >= bhi then Some false
      else None

let zeq ~k_max a b =
  match (a, b) with
  | Lin (b1, d1), Lin (b2, d2) ->
      let db = b1 - b2 and dd = d1 - d2 in
      if db = 0 && dd = 0 then Some true
      else if dd = 0 then Some false
      else
        (* equal only at k* = −db/dd, if that is an integer in range *)
        let hits = db mod dd = 0 && -(db / dd) >= 0 && -(db / dd) <= k_max in
        if hits then None else Some false
  | _ ->
      let alo, ahi = zbounds ~k_max a and blo, bhi = zbounds ~k_max b in
      if ahi < blo || bhi < alo then Some false else None

let decide ~k_max (c : Isa.cond) a b =
  let u f = match (zview_u ~k_max a, zview_u ~k_max b) with
    | Some za, Some zb -> f za zb
    | _ -> None
  and s f = match (zview_s ~k_max a, zview_s ~k_max b) with
    | Some za, Some zb -> f za zb
    | _ -> None
  in
  match c with
  | Eq -> u (zeq ~k_max)
  | Ne -> Option.map not (u (zeq ~k_max))
  | Ltu -> u (zlt ~k_max)
  | Geu -> Option.map not (u (zlt ~k_max))
  | Lt -> s (zlt ~k_max)
  | Ge -> Option.map not (s (zlt ~k_max))

(* ------------------------------------------------------------------ *)
(* Abstract ALU                                                       *)
(* ------------------------------------------------------------------ *)

let add_const ~k_max v c =
  match lin v with
  | Some (b, d) -> affine ~k_max (b + c) d
  | None -> (
      match interval ~k_max v with
      | Some (l, h, s) -> bounded (l + c) (h + c) s
      | None -> Opaque)

let add_abs ~k_max a b =
  match (lin a, lin b) with
  | Some (b1, d1), Some (b2, d2) -> affine ~k_max (b1 + b2) (d1 + d2)
  | _ -> (
      match (a, b) with
      (* a constant only shifts the other operand — keep its stride *)
      | Const c, v | v, Const c -> add_const ~k_max v c
      | _ -> (
          match (interval ~k_max a, interval ~k_max b) with
          | Some (l1, h1, s1), Some (l2, h2, s2) ->
              bounded (l1 + l2) (h1 + h2) (gcd s1 s2)
          | _ -> Opaque))

let sub_abs ~k_max a b =
  match (lin a, lin b) with
  | Some (b1, d1), Some (b2, d2) -> affine ~k_max (b1 - b2) (d1 - d2)
  | _ -> (
      match (a, b) with
      | v, Const c -> add_const ~k_max v (-c)
      | Const c, v -> (
          match interval ~k_max v with
          | Some (l, h, s) -> bounded (c - h) (c - l) s
          | None -> Opaque)
      | _ -> (
          match (interval ~k_max a, interval ~k_max b) with
          | Some (l1, h1, s1), Some (l2, h2, s2) ->
              bounded (l1 - h2) (h1 - l2) (gcd s1 s2)
          | _ -> Opaque))

let mul_abs ~k_max a b =
  let by_const c v =
    if c < 0 then Opaque
    else
      match lin v with
      | Some (b, d) -> (
          match (mul_exact c b, mul_exact c d) with
          | Some b', Some d' -> affine ~k_max b' d'
          | _ -> Opaque)
      | None -> (
          match interval ~k_max v with
          | Some (l, h, s) -> (
              match (mul_exact c l, mul_exact c h, mul_exact c s) with
              | Some l', Some h', Some s' -> bounded l' h' s'
              | _ -> Opaque)
          | None -> Opaque)
  in
  match (a, b) with
  | Const x, v | v, Const x -> by_const x v
  | _ -> Opaque

(* Division and remainder can trap: the divisor must be provably
   nonzero for the whole horizon. *)
let check_divisor ~k_max b =
  match interval ~k_max b with
  | Some (lo, _, _) when lo > 0 -> ()
  | Some _ | None -> abort ()

let div_abs ~k_max a b =
  check_divisor ~k_max b;
  match (a, b) with
  | Const x, Const y -> Const (x / y)
  | _, Const y -> (
      match interval ~k_max a with
      | Some (l, h, _) -> bounded (l / y) (h / y) 1
      | None -> Opaque)
  | _ -> Opaque

let rem_abs ~k_max a b =
  check_divisor ~k_max b;
  match (a, b) with
  | Const x, Const y -> Const (x mod y)
  | _ -> (
      match interval ~k_max b with
      | Some (_, hi, _) -> bounded 0 (hi - 1) 1
      | None -> Opaque (* unreachable: check_divisor needs an interval *))

let hi_bound ~k_max v =
  match interval ~k_max v with Some (_, h, _) -> Some h | None -> None

let and_abs ~k_max a b =
  match (a, b) with
  | Const x, Const y -> Const (x land y)
  | Const mask, v | v, Const mask ->
      if mask = 0 then Const 0
      else
        (* masking clears the bits below the mask's lowest set bit, so
           the result is a multiple of it — the stride witness that
           keeps masked word addresses provably aligned *)
        let h =
          match hi_bound ~k_max v with Some h -> min mask h | None -> mask
        in
        bounded 0 h (mask land -mask)
  | _ -> (
      match (hi_bound ~k_max a, hi_bound ~k_max b) with
      | Some ha, Some hb -> bounded 0 (min ha hb) 1
      | Some h, None | None, Some h -> bounded 0 h 1
      | None, None -> Opaque)

let bits_above v =
  let rec go m = if m >= v then m else go ((m * 2) + 1) in
  go 0

let orx_abs ~k_max exact a b =
  match (a, b) with
  | Const x, Const y -> Const (exact x y)
  | _ -> (
      match (hi_bound ~k_max a, hi_bound ~k_max b) with
      | Some ha, Some hb -> bounded 0 (bits_above (max ha hb)) 1
      | _ -> Opaque)

let shl_abs ~k_max a b =
  match b with
  | Const s ->
      let s = s land 31 in
      mul_abs ~k_max (Const (1 lsl s)) a
  | _ -> Opaque

let shr_abs ~k_max a b =
  match (a, b) with
  | Const x, Const s -> Const (x lsr (s land 31))
  | _, Const s -> (
      let s = s land 31 in
      match interval ~k_max a with
      | Some (l, h, _) -> bounded (l lsr s) (h lsr s) 1
      | None -> Opaque)
  | _ -> Opaque

let signed_const v = if v land 0x8000_0000 <> 0 then v - two32 else v

let setcc_abs ~k_max c a b =
  match decide ~k_max c a b with
  | Some true -> Const 1
  | Some false -> Const 0
  | None -> bounded 0 1 1

let alu_abs ~k_max (op : Isa.alu_op) a b =
  match op with
  | Add -> add_abs ~k_max a b
  | Sub -> sub_abs ~k_max a b
  | Mul -> mul_abs ~k_max a b
  | Divu -> div_abs ~k_max a b
  | Remu -> rem_abs ~k_max a b
  | And -> and_abs ~k_max a b
  | Or -> orx_abs ~k_max ( lor ) a b
  | Xor -> orx_abs ~k_max ( lxor ) a b
  | Shl -> shl_abs ~k_max a b
  | Shr -> shr_abs ~k_max a b
  | Sar -> (
      match (a, b) with
      | Const x, Const s ->
          Const ((signed_const x asr (s land 31)) land 0xFFFFFFFF)
      | _ -> Opaque)
  | Slt -> setcc_abs ~k_max Lt a b
  | Sltu -> setcc_abs ~k_max Ltu a b

(* ------------------------------------------------------------------ *)
(* The prover                                                         *)
(* ------------------------------------------------------------------ *)

let max_period = 2048

(* One tracked RAM cell, at the granularity it is accessed with. *)
type cell = {
  c_addr : int;
  c_width : int;
  mutable c_pre : int; (* concrete value at the period's start *)
  mutable c_model : abs;
  mutable c_cur : abs;
  mutable c_poison : bool; (* overlapping mixed-granularity access *)
  mutable c_live : bool; (* first access in the period is a read *)
}

let imm32 v = Int32.to_int v land 0xFFFFFFFF

(* Buffers reused across attempts, so a failed proof allocates nothing
   on the major heap.  Invariant between attempts: every [occ*] entry
   is -1 (an attempt resets exactly the pcs its scan touched). *)
type scratch = {
  mutable buf : int array; (* scan window: pc before each step *)
  mutable occ1 : int array; (* per pc: latest visit index in the scan *)
  mutable occ2 : int array; (* … the one before *)
  mutable occ3 : int array; (* … and the one before that *)
  mutable pcs : int array; (* the recorded period's pc sequence *)
  mutable addrs : int array; (* … and its memory access addresses *)
  cells : (int, cell) Hashtbl.t;
  owner : (int, int) Hashtbl.t; (* RAM byte -> key of its first cell *)
}

let scratch () =
  {
    buf = [||];
    occ1 = [||];
    occ2 = [||];
    occ3 = [||];
    pcs = [||];
    addrs = [||];
    cells = Hashtbl.create 64;
    owner = Hashtbl.create 64;
  }

(* Grow [sc] once to fit a program of [code_len] instructions. *)
let fit sc ~code_len =
  if Array.length sc.buf < max_period then begin
    sc.buf <- Array.make max_period 0;
    sc.pcs <- Array.make max_period 0;
    sc.addrs <- Array.make max_period (-1)
  end;
  if Array.length sc.occ1 < code_len then begin
    sc.occ1 <- Array.make code_len (-1);
    sc.occ2 <- Array.make code_len (-1);
    sc.occ3 <- Array.make code_len (-1)
  end

let attempt sc m ~limit ~fuel ~scan_cap =
  let prog = Machine.program m in
  let code = prog.Program.code in
  let ram_size = prog.Program.ram_size in
  let ri = Isa.reg_index in
  let regv r = Int32.to_int (Machine.reg m r) land 0xFFFFFFFF in
  let read_cell addr width =
    if width = 1 then Machine.read_ram_byte m addr
    else
      Machine.read_ram_byte m addr
      lor (Machine.read_ram_byte m (addr + 1) lsl 8)
      lor (Machine.read_ram_byte m (addr + 2) lsl 16)
      lor (Machine.read_ram_byte m (addr + 3) lsl 24)
  in
  let burn () =
    decr fuel;
    if !fuel < 0 then abort ();
    Machine.step m;
    if Machine.stopped m <> None then abort ()
  in
  (* 1. Scan a window of execution and pick the outermost stable loop.
     Anchoring at the first pc revisit would latch onto the innermost
     loop — whose branches legitimately flip when it exits — while the
     non-termination often lives in an enclosing loop.  In the scan,
     inner-loop pcs recur with short gaps and an enclosing loop's body
     pcs recur once per full iteration, so: prefer pcs whose last three
     visits are evenly spaced (a stable period; filters out one-off
     entry-path pcs), and among those take the longest period. *)
  let code_len = Array.length code in
  let scan = min (min scan_cap max_period) !fuel in
  if scan < 8 then abort ();
  let buf = sc.buf in
  let taken = Machine.scan_pcs m buf ~len:scan in
  fuel := !fuel - taken;
  if taken < scan then abort ();
  let occ1 = sc.occ1 and occ2 = sc.occ2 and occ3 = sc.occ3 in
  for i = 0 to scan - 1 do
    let pc = buf.(i) in
    if pc >= 0 && pc < code_len then begin
      occ3.(pc) <- occ2.(pc);
      occ2.(pc) <- occ1.(pc);
      occ1.(pc) <- i
    end
  done;
  (* Rank the scanned pcs, ties going to the lowest pc, and reset each
     one's entries once ranked, restoring the scratch invariant. *)
  let anchor = ref (-1) and best = ref 0 and best_stable = ref false in
  for i = 0 to scan - 1 do
    let pc = buf.(i) in
    if pc >= 0 && pc < code_len && occ1.(pc) >= 0 then begin
      if occ2.(pc) >= 0 then begin
        let g = occ1.(pc) - occ2.(pc) in
        let st = occ3.(pc) >= 0 && occ2.(pc) - occ3.(pc) = g in
        if
          (st && not !best_stable)
          || (st = !best_stable && (g > !best || (g = !best && pc < !anchor)))
        then begin
          anchor := pc;
          best := g;
          best_stable := st
        end
      end;
      occ1.(pc) <- -1;
      occ2.(pc) <- -1;
      occ3.(pc) <- -1
    end
  done;
  if !anchor < 0 then abort ();
  let p0 = !anchor and period = !best in
  (* Step to the anchor's next visit — at most one period away while
     the loop is still live. *)
  let rec align k =
    if Machine.pc m <> p0 then
      if k > period + 8 then abort ()
      else begin
        burn ();
        align (k + 1)
      end
  in
  align 0;
  (* 2. Record one period concretely. *)
  let pcs = sc.pcs and addrs = sc.addrs in
  let cells = sc.cells and owner = sc.owner in
  Hashtbl.reset cells;
  Hashtbl.reset owner;
  let touch addr width ~is_load =
    let key = (addr lsl 1) lor (if width = 4 then 1 else 0) in
    (if not (Hashtbl.mem cells key) then begin
       let c =
         {
           c_addr = addr;
           c_width = width;
           c_pre = read_cell addr width;
           c_model = Opaque;
           c_cur = Opaque;
           c_poison = false;
           c_live = is_load;
         }
       in
       Hashtbl.add cells key c;
       for b = addr to addr + width - 1 do
         match Hashtbl.find_opt owner b with
         | None -> Hashtbl.add owner b key
         | Some key' when key' <> key ->
             c.c_poison <- true;
             (Hashtbl.find cells key').c_poison <- true
         | Some _ -> ()
       done
     end)
  in
  let regs2 = Array.init 16 (fun i -> if i = 0 then 0 else regv (Isa.reg i)) in
  for i = 0 to period - 1 do
    let pc = Machine.pc m in
    pcs.(i) <- pc;
    (if pc >= 0 && pc < Array.length code then
       match code.(pc) with
       | Isa.Lb (_, rs, off) ->
           let addr = (regv rs + Int32.to_int off) land 0xFFFFFFFF in
           addrs.(i) <- addr;
           if addr + 1 <= ram_size then touch addr 1 ~is_load:true
       | Isa.Sb (_, rs, off) ->
           let addr = (regv rs + Int32.to_int off) land 0xFFFFFFFF in
           addrs.(i) <- addr;
           if addr + 1 <= ram_size then touch addr 1 ~is_load:false
       | Isa.Lw (_, rs, off) ->
           let addr = (regv rs + Int32.to_int off) land 0xFFFFFFFF in
           addrs.(i) <- addr;
           if addr + 4 <= ram_size then touch addr 4 ~is_load:true
       | Isa.Sw (_, rs, off) ->
           let addr = (regv rs + Int32.to_int off) land 0xFFFFFFFF in
           addrs.(i) <- addr;
           if addr + 4 <= ram_size then touch addr 4 ~is_load:false
       | _ -> ());
    burn ()
  done;
  if Machine.pc m <> p0 then abort ();
  (* 3. Models from the observed period delta (hypotheses only — the
     abstract run below is what validates them). *)
  let remaining = limit - Machine.cycle m in
  if remaining <= 0 then abort () (* nothing left to prove *)
  else begin
    let k_max = (remaining / period) + 1 in
    (* The induction only constrains registers the period reads before
       writing (its live-in set): a scratch register is rewritten from
       fresh values every period, so its start-of-period value is
       irrelevant — model it Opaque and exempt it from the end-of-period
       consistency check. *)
    let reg_live = Array.make 16 false in
    let () =
      let written = Array.make 16 false in
      for i = 0 to period - 1 do
        let pc = pcs.(i) in
        if pc >= 0 && pc < code_len then begin
          let writes, reads = Isa.defs_uses code.(pc) in
          List.iter
            (fun r ->
              let j = ri r in
              if not written.(j) then reg_live.(j) <- true)
            reads;
          List.iter (fun r -> written.(ri r) <- true) writes
        end
      done
    in
    let reg_model =
      Array.init 16 (fun i ->
          if i = 0 then Const 0
          else if not reg_live.(i) then Opaque
          else
            let v3 = regv (Isa.reg i) in
            affine ~k_max v3 (v3 - regs2.(i)))
    in
    Hashtbl.iter
      (fun _ c ->
        if c.c_poison || not c.c_live then c.c_model <- Opaque
        else begin
          let v3 = read_cell c.c_addr c.c_width in
          c.c_model <- affine ~k_max v3 (v3 - c.c_pre)
        end;
        c.c_cur <- c.c_model)
      cells;
    (* 4. Abstract execution of the recorded period.  A store through a
       varying (affine-swept) address may clobber tracked cells — e.g. a
       round loop appending to [out[c]] with [c] advancing each period.
       When that happens the overlapped cells' models are demoted to
       Opaque and the pass restarts with the weaker models; poisoning is
       monotone, so the fixpoint is reached in at most #cells passes. *)
    let abstract_pass () =
      let regs_abs = Array.copy reg_model in
      Hashtbl.iter (fun _ c -> c.c_cur <- c.c_model) cells;
      let aval i = if i = 0 then Const 0 else regs_abs.(i) in
      let aset i v = if i <> 0 then regs_abs.(i) <- v in
      let cell_at addr width =
        match
          Hashtbl.find_opt cells ((addr lsl 1) lor (if width = 4 then 1 else 0))
        with
        | Some c -> c
        | None -> abort ()
      in
      let addr_abs rs off = add_const ~k_max (aval (ri rs)) (Int32.to_int off) in
      let load_abs i width rs off =
        match addr_abs rs off with
        | Const a ->
            if a <> addrs.(i) then abort ();
            if a + width <= ram_size then begin
              let c = cell_at a width in
              if c.c_poison then Opaque else c.c_cur
            end
            else if a >= Memmap.rom_base && a + width <= Memmap.rom_limit
            then begin
              let rom = prog.Program.rom in
              let b j =
                let o = a - Memmap.rom_base + j in
                if o < Bytes.length rom then Char.code (Bytes.get rom o) else 0
              in
              if width = 1 then Const (b 0)
              else Const (b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24))
            end
            else (
              match Memmap.classify ~ram_size a with
              | Memmap.Mmio -> Const 0
              | Memmap.Ram | Memmap.Rom | Memmap.Unmapped -> abort ())
        | v -> (
            (* varying address: sound only if provably confined to RAM
               (and aligned, for words) for the whole horizon *)
            match interval ~k_max v with
            | Some (lo, hi, step)
              when lo >= 0
                   && hi + width <= ram_size
                   && (width = 1 || (lo land 3 = 0 && step land 3 = 0)) ->
                Opaque
            | _ -> abort ())
      in
      let store_abs i width rs off value =
        match addr_abs rs off with
        | Const a ->
            if a <> addrs.(i) then abort ();
            if a + width <= ram_size then begin
              let c = cell_at a width in
              if not c.c_poison then c.c_cur <- value
            end
            else if a = Memmap.panic_port then abort ()
            else (
              match Memmap.classify ~ram_size a with
              | Memmap.Mmio -> () (* serial/detect: irrelevant to Cycle_limit *)
              | Memmap.Ram | Memmap.Rom | Memmap.Unmapped -> abort ())
        | v -> (
            match interval ~k_max v with
            | Some (lo, hi, step)
              when lo >= 0
                   && hi + width <= ram_size
                   && (width = 1 || (lo land 3 = 0 && step land 3 = 0)) ->
                (* in-RAM aligned sweep: sound iff no tracked cell keeps
                   a non-trivial model the sweep could invalidate *)
                let dirty = ref false in
                Hashtbl.iter
                  (fun _ c ->
                    if
                      (not c.c_poison)
                      && c.c_addr <= hi + width - 1
                      && lo <= c.c_addr + c.c_width - 1
                    then begin
                      c.c_poison <- true;
                      c.c_model <- Opaque;
                      dirty := true
                    end)
                  cells;
                if !dirty then raise Restart
            | Some _ | None -> abort ())
      in
      for i = 0 to period - 1 do
        let pc = pcs.(i) in
        let next = if i + 1 < period then pcs.(i + 1) else p0 in
        match code.(pc) with
        | Isa.Nop | Isa.Jmp _ -> ()
        | Isa.Halt -> abort () (* cannot occur in a trace that ran *)
        | Isa.Li (rd, imm) -> aset (ri rd) (Const (imm32 imm))
        | Isa.Alu (op, rd, a, b) ->
            aset (ri rd) (alu_abs ~k_max op (aval (ri a)) (aval (ri b)))
        | Isa.Alui (op, rd, a, imm) ->
            aset (ri rd) (alu_abs ~k_max op (aval (ri a)) (Const (imm32 imm)))
        | Isa.Lb (rd, rs, off) -> aset (ri rd) (load_abs i 1 rs off)
        | Isa.Lw (rd, rs, off) -> aset (ri rd) (load_abs i 4 rs off)
        | Isa.Sb (rd, rs, off) -> store_abs i 1 rs off (aval (ri rd))
        | Isa.Sw (rd, rs, off) -> store_abs i 4 rs off (aval (ri rd))
        | Isa.Beq (a, b, target, c) -> (
            let expected = next = target in
            if target = pc + 1 then () (* both arms agree *)
            else
              match decide ~k_max c (aval (ri a)) (aval (ri b)) with
              | Some t when t = expected -> ()
              | Some _ | None -> abort ())
        | Isa.Jal (rd, _) -> aset (ri rd) (Const (pc + 1))
        | Isa.Jr rs -> (
            match aval (ri rs) with
            | Const t when t = next -> ()
            | _ -> abort ())
      done;
      (* 5. The period's end state must be the model advanced one period. *)
      let consistent model cur =
        match model with
        | Opaque -> true
        | Const v -> ( match cur with Const v' -> v' = v | _ -> false)
        | Affine (b, d) -> (
            match cur with Affine (b', d') -> d' = d && b' = b + d | _ -> false)
        | Bounded _ -> false (* never constructed as a model *)
      in
      for r = 1 to 15 do
        if not (consistent reg_model.(r) regs_abs.(r)) then abort ()
      done;
      Hashtbl.iter
        (fun _ c -> if not (consistent c.c_model c.c_cur) then abort ())
        cells
    in
    let rec fixpoint () =
      match abstract_pass () with () -> () | exception Restart -> fixpoint ()
    in
    fixpoint ()
  end

let prove_no_halt sc m ~limit =
  match Machine.stopped m with
  | Some _ -> false
  | None ->
      fit sc ~code_len:(Array.length (Machine.program m).Program.code);
      (* Never step past [limit]: a run still going at [limit] is a
         watchdog run, even if it would stop a few cycles later. *)
      let fuel = ref (min 8192 (limit - Machine.cycle m)) in
      (* Most loops are short: a cheap first attempt with a small scan
         window proves them at a fraction of the full window's cost,
         and a failure only spends those few hundred (real, resumable)
         cycles before the wide attempts run. *)
      let rec attempts = function
        | [] -> false
        | scan_cap :: rest -> (
            match attempt sc m ~limit ~fuel ~scan_cap with
            | () -> true
            | exception Abort ->
                Machine.stopped m = None && !fuel > 0 && attempts rest)
      in
      attempts [ 256; max_period; max_period ]
