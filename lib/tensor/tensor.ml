(* Storage is a flat Bigarray (float64, C layout) rather than an OCaml
   [float array]: kernels address elements through unsafe flat access
   exactly as before (IEEE doubles either way, so results are
   bit-identical), and the buffer is shareable with C stubs later
   without copying. Views ([rows_view]) keep sharing the *same* buffer
   value — never an [Array1.sub] proxy — so physical equality on
   [data] remains a sound aliasing test. *)

module A = Bigarray.Array1

type buffer = (float, Bigarray.float64_elt, Bigarray.c_layout) A.t

type t = { rows : int; cols : int; off : int; data : buffer }

let alloc n : buffer = A.create Bigarray.float64 Bigarray.c_layout n

(* Partial fill of a flat range. [A.fill] only covers whole arrays, and
   an [A.sub] proxy per call would allocate on the hot path. *)
let fill_range (d : buffer) off len v =
  for i = off to off + len - 1 do
    A.unsafe_set d i v
  done

let idx t r c = t.off + (r * t.cols) + c

let create ~rows ~cols v =
  assert (rows >= 0 && cols >= 0);
  let data = alloc (rows * cols) in
  fill_range data 0 (rows * cols) v;
  { rows; cols; off = 0; data }

let zeros ~rows ~cols = create ~rows ~cols 0.

let scalar v =
  let data = alloc 1 in
  A.unsafe_set data 0 v;
  { rows = 1; cols = 1; off = 0; data }

let of_array ~rows ~cols src =
  assert (Array.length src = rows * cols);
  let data = alloc (rows * cols) in
  Array.iteri (fun i x -> A.unsafe_set data i x) src;
  { rows; cols; off = 0; data }

let of_row a = of_array ~rows:1 ~cols:(Array.length a) a

let of_rows rs =
  let rows = Array.length rs in
  assert (rows > 0);
  let cols = Array.length rs.(0) in
  let data = alloc (rows * cols) in
  Array.iteri
    (fun r row ->
      assert (Array.length row = cols);
      for c = 0 to cols - 1 do
        A.unsafe_set data ((r * cols) + c) (Array.unsafe_get row c)
      done)
    rs;
  { rows; cols; off = 0; data }

let init ~rows ~cols f =
  let data = alloc (rows * cols) in
  let k = ref 0 in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      A.unsafe_set data !k (f r c);
      incr k
    done
  done;
  { rows; cols; off = 0; data }

let rows t = t.rows
let cols t = t.cols
let numel t = t.rows * t.cols
let get t r c = A.get t.data (idx t r c)
let set t r c v = A.set t.data (idx t r c) v

let copy t =
  let n = numel t in
  let data = alloc n in
  for i = 0 to n - 1 do
    A.unsafe_set data i (A.unsafe_get t.data (t.off + i))
  done;
  { t with off = 0; data }

let to_row_array t = Array.init (numel t) (fun i -> A.unsafe_get t.data (t.off + i))
let row t r = Array.init t.cols (fun c -> A.unsafe_get t.data (t.off + (r * t.cols) + c))

let rows_view t ~row ~len =
  if row < 0 || len < 0 || row + len > t.rows then
    invalid_arg "Tensor.rows_view: row range out of bounds";
  { t with rows = len; off = t.off + (row * t.cols) }

let col t c =
  init ~rows:t.rows ~cols:1 (fun r _ -> get t r c)

let get_scalar t =
  assert (t.rows = 1 && t.cols = 1);
  A.get t.data t.off

let same_shape a b = a.rows = b.rows && a.cols = b.cols

let map f t =
  let n = numel t in
  let data = alloc n in
  for i = 0 to n - 1 do
    A.unsafe_set data i (f (A.unsafe_get t.data (t.off + i)))
  done;
  { t with off = 0; data }

let map2 f a b =
  assert (same_shape a b);
  let n = numel a in
  let data = alloc n in
  for i = 0 to n - 1 do
    A.unsafe_set data i
      (f (A.unsafe_get a.data (a.off + i)) (A.unsafe_get b.data (b.off + i)))
  done;
  { a with off = 0; data }

let add a b = map2 ( +. ) a b
let sub a b = map2 ( -. ) a b
let mul a b = map2 ( *. ) a b
let div a b = map2 ( /. ) a b
let neg t = map (fun x -> -.x) t
let scale k t = map (fun x -> k *. x) t
let add_scalar k t = map (fun x -> k +. x) t
let fill t v = fill_range t.data t.off (numel t) v

let blit_into ~dst src =
  assert (same_shape dst src);
  let n = numel src in
  (* [src] and [dst] may be views of one buffer; the batched engine only
     ever blits between disjoint row ranges, and for the identical-range
     case the element copy below is trivially correct too. *)
  if dst.data == src.data && dst.off > src.off then
    for i = n - 1 downto 0 do
      A.unsafe_set dst.data (dst.off + i) (A.unsafe_get src.data (src.off + i))
    done
  else
    for i = 0 to n - 1 do
      A.unsafe_set dst.data (dst.off + i) (A.unsafe_get src.data (src.off + i))
    done

let add_inplace acc x =
  assert (same_shape acc x);
  let ad = acc.data and xd = x.data and ao = acc.off and xo = x.off in
  for i = 0 to numel acc - 1 do
    A.unsafe_set ad (ao + i) (A.unsafe_get ad (ao + i) +. A.unsafe_get xd (xo + i))
  done

let broadcast_rv f m rv =
  assert (rv.rows = 1 && rv.cols = m.cols);
  let cols = m.cols in
  let data = alloc (m.rows * cols) in
  let k = ref 0 in
  for r = 0 to m.rows - 1 do
    let moff = m.off + (r * cols) in
    for c = 0 to cols - 1 do
      A.unsafe_set data !k
        (f (A.unsafe_get m.data (moff + c)) (A.unsafe_get rv.data (rv.off + c)));
      incr k
    done
  done;
  { rows = m.rows; cols; off = 0; data }

let add_rv m rv = broadcast_rv ( +. ) m rv
let mul_rv m rv = broadcast_rv ( *. ) m rv

(* The per-row broadcast kernels below run inside the per-time-step
   loop of the no-grad forward, so they are hand-specialized (no
   closure dispatch) and use unchecked accesses: the shape asserts plus
   the view invariant [off + rows * cols <= A.dim data] make every
   index provably in bounds. *)

let add_rv_inplace m rv =
  assert (rv.rows = 1 && rv.cols = m.cols);
  let cols = m.cols in
  let md = m.data and rd = rv.data and ro = rv.off in
  for r = 0 to m.rows - 1 do
    let moff = m.off + (r * cols) in
    for c = 0 to cols - 1 do
      A.unsafe_set md (moff + c)
        (A.unsafe_get md (moff + c) +. A.unsafe_get rd (ro + c))
    done
  done

let mul_rv_inplace m rv =
  assert (rv.rows = 1 && rv.cols = m.cols);
  let cols = m.cols in
  let md = m.data and rd = rv.data and ro = rv.off in
  for r = 0 to m.rows - 1 do
    let moff = m.off + (r * cols) in
    for c = 0 to cols - 1 do
      A.unsafe_set md (moff + c)
        (A.unsafe_get md (moff + c) *. A.unsafe_get rd (ro + c))
    done
  done

let add_mul_rv_inplace m ~add ~mul =
  (* Fused (m + add) * mul: element-for-element the same expression as
     add_rv_inplace followed by mul_rv_inplace, in one memory pass. *)
  assert (add.rows = 1 && add.cols = m.cols);
  assert (mul.rows = 1 && mul.cols = m.cols);
  let cols = m.cols in
  let md = m.data and ad = add.data and ud = mul.data in
  let ao = add.off and uo = mul.off in
  for r = 0 to m.rows - 1 do
    let moff = m.off + (r * cols) in
    for c = 0 to cols - 1 do
      A.unsafe_set md (moff + c)
        ((A.unsafe_get md (moff + c) +. A.unsafe_get ad (ao + c))
        *. A.unsafe_get ud (uo + c))
    done
  done

let affine_rv_into ~dst s a x b =
  assert (same_shape s x && same_shape dst s);
  assert (a.rows = 1 && a.cols = s.cols && b.rows = 1 && b.cols = s.cols);
  let cols = s.cols in
  let dd = dst.data and sd = s.data and xd = x.data in
  let ad = a.data and bd = b.data in
  let ao = a.off and bo = b.off in
  for r = 0 to s.rows - 1 do
    let doff = dst.off + (r * cols)
    and soff = s.off + (r * cols)
    and xoff = x.off + (r * cols) in
    for c = 0 to cols - 1 do
      (* dst may alias s (the filter state update overwrites in place);
         each element is read before it is written. *)
      A.unsafe_set dd (doff + c)
        ((A.unsafe_get sd (soff + c) *. A.unsafe_get ad (ao + c))
        +. (A.unsafe_get xd (xoff + c) *. A.unsafe_get bd (bo + c)))
    done
  done

(* Cache-blocking tile sizes for [matmul_into]. The k-tiles are visited
   in ascending order, so every output element still accumulates its
   products in the same k-ascending order as the naive triple loop —
   blocking changes memory locality, never the floating-point result. *)
let block_rows = 32
let block_inner = 32

let matmul_into ~dst a b =
  if dst.data == a.data || dst.data == b.data then
    invalid_arg "Tensor.matmul_into: dst must not alias an input";
  assert (a.cols = b.rows);
  assert (dst.rows = a.rows && dst.cols = b.cols);
  let m = a.rows and kk = a.cols and n = b.cols in
  let ad = a.data and bd = b.data and dd = dst.data in
  if kk = 1 then begin
    (* Single-inner-dimension fast path (the first layer of every
       circuit: [batch x 1] inputs). Writing [0. +. av *. b] directly
       reproduces the zero-fill-then-accumulate result bit for bit
       while skipping the separate fill pass. *)
    let bo = b.off in
    for r = 0 to m - 1 do
      let av = A.unsafe_get ad (a.off + r) in
      let ooff = dst.off + (r * n) in
      if av <> 0. then
        for c = 0 to n - 1 do
          A.unsafe_set dd (ooff + c) (0. +. (av *. A.unsafe_get bd (bo + c)))
        done
      else fill_range dd ooff n 0.
    done
  end
  else begin
    fill_range dd dst.off (m * n) 0.;
    let r0 = ref 0 in
    while !r0 < m do
      let r1 = Stdlib.min m (!r0 + block_rows) in
      let k0 = ref 0 in
      while !k0 < kk do
        let k1 = Stdlib.min kk (!k0 + block_inner) in
        for r = !r0 to r1 - 1 do
          let aoff = a.off + (r * kk) and ooff = dst.off + (r * n) in
          for k = !k0 to k1 - 1 do
            let av = A.unsafe_get ad (aoff + k) in
            if av <> 0. then begin
              let boff = b.off + (k * n) in
              for c = 0 to n - 1 do
                A.unsafe_set dd (ooff + c)
                  (A.unsafe_get dd (ooff + c) +. (av *. A.unsafe_get bd (boff + c)))
              done
            end
          done
        done;
        k0 := k1
      done;
      r0 := r1
    done
  end

let matmul a b =
  assert (a.cols = b.rows);
  let out = zeros ~rows:a.rows ~cols:b.cols in
  matmul_into ~dst:out a b;
  out

let transpose t = init ~rows:t.cols ~cols:t.rows (fun r c -> get t c r)

let sum t =
  let acc = ref 0. in
  for i = 0 to numel t - 1 do
    acc := !acc +. A.unsafe_get t.data (t.off + i)
  done;
  !acc

let mean t = sum t /. float_of_int (Stdlib.max 1 (numel t))

let sum_rows t =
  let out = zeros ~rows:1 ~cols:t.cols in
  for r = 0 to t.rows - 1 do
    for c = 0 to t.cols - 1 do
      A.unsafe_set out.data c (A.unsafe_get out.data c +. get t r c)
    done
  done;
  out

let sum_cols t =
  let out = zeros ~rows:t.rows ~cols:1 in
  for r = 0 to t.rows - 1 do
    let acc = ref 0. in
    for c = 0 to t.cols - 1 do
      acc := !acc +. get t r c
    done;
    A.unsafe_set out.data r !acc
  done;
  out

let max_abs t =
  let m = ref 0. in
  for i = 0 to numel t - 1 do
    m := Float.max !m (Float.abs (A.unsafe_get t.data (t.off + i)))
  done;
  !m

let uniform rng ~rows ~cols ~lo ~hi =
  init ~rows ~cols (fun _ _ -> Pnc_util.Rng.uniform rng ~lo ~hi)

let gaussian rng ~rows ~cols ~mu ~sigma =
  init ~rows ~cols (fun _ _ -> Pnc_util.Rng.gaussian ~mu ~sigma rng)

let one_hot ~n_classes labels =
  let t = zeros ~rows:(Array.length labels) ~cols:n_classes in
  Array.iteri
    (fun r y ->
      assert (y >= 0 && y < n_classes);
      set t r y 1.)
    labels;
  t

let argmax_rows t = Array.init t.rows (fun r -> Pnc_util.Vec.argmax (row t r))

let equal_eps ~eps a b =
  same_shape a b
  &&
  let ok = ref true in
  let n = numel a in
  let i = ref 0 in
  while !ok && !i < n do
    if
      not
        (Float.abs (A.unsafe_get a.data (a.off + !i) -. A.unsafe_get b.data (b.off + !i))
        <= eps)
    then ok := false;
    incr i
  done;
  !ok

let pp ppf t =
  Format.fprintf ppf "@[<v>[%dx%d]" t.rows t.cols;
  for r = 0 to Stdlib.min (t.rows - 1) 7 do
    Format.fprintf ppf "@,";
    for c = 0 to Stdlib.min (t.cols - 1) 7 do
      Format.fprintf ppf "% .4f " (get t r c)
    done;
    if t.cols > 8 then Format.fprintf ppf "..."
  done;
  if t.rows > 8 then Format.fprintf ppf "@,...";
  Format.fprintf ppf "@]"
