(* Integer twin of the kernel's OLIA (net/mptcp/mptcp_olia.c, linux-4.1
   MPTCP tree, SNIPPETS.md), mirrored step by step: the scaled rate
   accumulation of mptcp_get_rate, the epsilon numerator/denominator
   sets of mptcp_get_epsilon, the mptcp_snd_cwnd_cnt increment of
   mptcp_olia_cong_avoid, and the loss1/loss2/loss3 byte counters of
   mptcp_olia_set_state. All update-path arithmetic is integer-only on
   Fixedpoint primitives; floats appear only in the
   [@olia.float_boundary] adapters that translate the simulator's float
   subflow views into kernel units and the signed cnt increment back
   into a per-ACK cwnd delta. *)

module Fp = Fixedpoint

(* Kernel state per subflow, struct-of-arrays so the integer cores can
   run without allocating: cwnd in packets, srtt in microseconds, the
   three loss counters, and the epsilon fraction mptcp_get_epsilon
   writes back. The scalar fields are loop accumulators — the cores may
   not allocate, so they carry partial sums here instead of in refs. *)
type state = {
  mutable n : int;
  mutable cwnd : int array;
  mutable rtt_us : int array;
  mutable loss1 : int array;
  mutable loss2 : int array;
  mutable loss3 : int array;
  mutable eps_num : int array;
  mutable eps_den : int array;
  mutable acc : int;
  mutable best_int : int;
  mutable best_rtt : int;
  mutable set_m : int;
  mutable set_b_not_m : int;
}

(* --- integer cores (kernel arithmetic, alloc-free) -------------------- *)

(* The kernel's tmp_int: max(loss3 - loss2, loss2 - loss1), the larger
   of the inter-loss intervals l1(p), l2(p). *)
let[@olia.alloc_free] loss_interval st p =
  let l2 = st.loss3.(p) - st.loss2.(p) and l1 = st.loss2.(p) - st.loss1.(p) in
  if l2 > l1 then l2 else l1

(* mptcp_get_max_cwnd *)
let[@olia.alloc_free] max_cwnd st =
  st.acc <- 0;
  for p = 0 to st.n - 1 do
    if st.cwnd.(p) > st.acc then st.acc <- st.cwnd.(p)
  done;
  st.acc

(* mptcp_get_rate: rate = (1 + sum_p (w_p << scale) * rtt_idx / rtt_p)^2,
   the squared scaled aggregate in units of the updated path's rtt. The
   1 floor keeps it usable as a divisor. *)
let[@olia.alloc_free] get_rate st idx =
  let path_rtt = st.rtt_us.(idx) in
  st.acc <- 1;
  for p = 0 to st.n - 1 do
    let scaled_num = Fp.mul_sat (Fp.scale_sat st.cwnd.(p)) path_rtt in
    st.acc <- Fp.add_sat st.acc (Fp.div_u64 scaled_num st.rtt_us.(p))
  done;
  Fp.mul_sat st.acc st.acc

(* mptcp_get_epsilon: three passes — find the best path by
   tmp_int/tmp_rtt (compared by cross-multiplication, best_int = 0 and
   best_rtt = 1 initially), count the max-cwnd set M and the best paths
   outside it B\M, then write each path's epsilon fraction. *)
let[@olia.alloc_free] get_epsilon st =
  let mc = max_cwnd st in
  st.best_int <- 0;
  st.best_rtt <- 1;
  for p = 0 to st.n - 1 do
    let tmp_rtt = Fp.mul_sat st.rtt_us.(p) st.rtt_us.(p) in
    let tmp_int = loss_interval st p in
    if Fp.mul_sat tmp_int st.best_rtt >= Fp.mul_sat st.best_int tmp_rtt
    then begin
      st.best_rtt <- tmp_rtt;
      st.best_int <- tmp_int
    end
  done;
  st.set_m <- 0;
  st.set_b_not_m <- 0;
  for p = 0 to st.n - 1 do
    if st.cwnd.(p) = mc then st.set_m <- st.set_m + 1
    else begin
      let tmp_rtt = Fp.mul_sat st.rtt_us.(p) st.rtt_us.(p) in
      let tmp_int = loss_interval st p in
      if Fp.mul_sat tmp_int st.best_rtt = Fp.mul_sat st.best_int tmp_rtt then
        st.set_b_not_m <- st.set_b_not_m + 1
    end
  done;
  for p = 0 to st.n - 1 do
    if st.set_b_not_m = 0 then begin
      st.eps_num.(p) <- 0;
      st.eps_den.(p) <- 1
    end
    else begin
      let tmp_rtt = Fp.mul_sat st.rtt_us.(p) st.rtt_us.(p) in
      let tmp_int = loss_interval st p in
      if
        st.cwnd.(p) < mc
        && Fp.mul_sat tmp_int st.best_rtt = Fp.mul_sat st.best_int tmp_rtt
      then begin
        st.eps_num.(p) <- 1;
        st.eps_den.(p) <- st.n * st.set_b_not_m
      end
      else if st.cwnd.(p) = mc then begin
        st.eps_num.(p) <- -1;
        st.eps_den.(p) <- st.n * st.set_m
      end
      else begin
        st.eps_num.(p) <- 0;
        st.eps_den.(p) <- 1
      end
    end
  done

(* The signed per-ACK mptcp_snd_cwnd_cnt increment of
   mptcp_olia_cong_avoid, in cnt units ((1 << scale) - 1 of them make a
   full cwnd step). The scaled numerator shift "is used to reduce the
   rounding effect"; the epsilon_num = -1 branches keep the u64
   subtraction nonnegative exactly as the kernel does. *)
let[@olia.alloc_free] cnt_increment st idx =
  get_epsilon st;
  let rate = get_rate st idx in
  let cwnd_scaled = Fp.scale_sat st.cwnd.(idx) in
  let ed = st.eps_den.(idx) in
  let inc_den =
    let d = Fp.mul_sat (Fp.mul_sat ed st.cwnd.(idx)) rate in
    if d = 0 then 1 else d
  in
  let w2 = Fp.mul_sat ed (Fp.mul_sat cwnd_scaled cwnd_scaled) in
  if st.eps_num.(idx) = -1 then
    if w2 < rate then -(Fp.div_u64 (Fp.scale_sat (rate - w2)) inc_den)
    else Fp.div_u64 (Fp.scale_sat (w2 - rate)) inc_den
  else begin
    let inc_num = if st.eps_num.(idx) = 1 then Fp.add_sat rate w2 else w2 in
    Fp.div_u64 (Fp.scale_sat inc_num) inc_den
  end

(* mptcp_olia_set_state on TCP_CA_Loss/Recovery: roll the loss counters
   unless nothing was acked since the previous loss. *)
let[@olia.alloc_free] note_loss st idx =
  if st.loss3.(idx) <> st.loss2.(idx) then begin
    st.loss1.(idx) <- st.loss2.(idx);
    st.loss2.(idx) <- st.loss3.(idx)
  end

let[@olia.alloc_free] note_acked st idx pkts =
  st.loss3.(idx) <- st.loss3.(idx) + pkts

(* --- float boundary ---------------------------------------------------- *)

let ensure st idx =
  if idx >= Array.length st.cwnd then begin
    let cap = Stdlib.max (2 * (idx + 1)) 4 in
    let grow a =
      Array.init cap (fun i -> if i < Array.length a then a.(i) else 0)
    in
    st.cwnd <- grow st.cwnd;
    st.rtt_us <- grow st.rtt_us;
    st.loss1 <- grow st.loss1;
    st.loss2 <- grow st.loss2;
    st.loss3 <- grow st.loss3;
    st.eps_num <- grow st.eps_num;
    st.eps_den <- grow st.eps_den
  end;
  if idx >= st.n then st.n <- idx + 1

(* Translate the simulator's float views into kernel units: cwnd
   truncated to whole packets (floored at 1 like the kernel's integer
   snd_cwnd), srtt in microseconds (floored at 1 so it can divide). *)
let[@olia.float_boundary] sync st (views : Cc_types.subflow_view array) =
  let n = Array.length views in
  ensure st (n - 1);
  st.n <- n;
  for p = 0 to n - 1 do
    let v = views.(p) in
    let w = int_of_float v.Cc_types.cwnd in
    st.cwnd.(p) <- (if w < 1 then 1 else w);
    st.rtt_us.(p) <- Fp.usec_of_sec v.Cc_types.rtt
  done

let[@olia.float_boundary] create () =
  let st =
    {
      n = 0;
      cwnd = Array.make 4 0;
      rtt_us = Array.make 4 1;
      loss1 = Array.make 4 0;
      loss2 = Array.make 4 0;
      loss3 = Array.make 4 0;
      eps_num = Array.make 4 0;
      eps_den = Array.make 4 1;
      acc = 0;
      best_int = 0;
      best_rtt = 1;
      set_m = 0;
      set_b_not_m = 0;
    }
  in
  let increase ~views ~idx =
    sync st views;
    float_of_int (cnt_increment st idx) /. float_of_int Fp.cnt_wrap
  in
  let on_ack ~idx ~acked =
    ensure st idx;
    note_acked st idx acked
  in
  let on_loss ~idx =
    ensure st idx;
    note_loss st idx
  in
  (* The kernel leaves ssthresh to tcp_reno_ssthresh: the new window is
     the integer half of the old one, so the decrease returned here
     lands the float cwnd exactly on [w asr 1]. *)
  let loss_decrease ~views ~idx =
    let c = views.(idx).Cc_types.cwnd in
    let w = int_of_float c in
    let w = if w < 1 then 1 else w in
    c -. float_of_int (w asr 1)
  in
  {
    Cc_types.name = "olia-fp";
    multipath_initial_ssthresh = Some 1.;
    on_ack;
    on_loss;
    increase;
    loss_decrease;
  }
