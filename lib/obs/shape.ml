(** Trie shape census: the accumulator structures walk their nodes
    into, and the JSON / Prometheus renderings of the resulting
    {!Dset_intf.census}.

    The walkers themselves live with the structures (they need the
    private node types); this module owns everything shape-generic —
    exact distribution accounting, [pat_shape_*] metric families, and
    the census JSON document served at [/debug/shape] and written by
    [patbench analyze].

    Depth convention: the root node is at depth 0 and each child
    pointer followed adds one, so a leaf's depth is exactly the number
    of pointer dereferences (≈ potential cache misses) a search pays
    to reach it. *)

(* Exact per-value counts for one structural quantity.  Values are
   small non-negative ints (depths ≤ key width, branching ≤ arity), so
   a plain count array is exact where a sampled histogram would only
   estimate; [cap] is a safety net, far above any real trie depth. *)
type series = {
  mutable s_count : int;
  mutable s_sum : int;
  mutable s_min : int;
  mutable s_max : int;
  counts : int array;
}

let cap = 4096

let series () =
  { s_count = 0; s_sum = 0; s_min = max_int; s_max = 0; counts = Array.make cap 0 }

let observe s v =
  let v = if v < 0 then 0 else v in
  s.s_count <- s.s_count + 1;
  s.s_sum <- s.s_sum + v;
  if v < s.s_min then s.s_min <- v;
  if v > s.s_max then s.s_max <- v;
  let i = if v >= cap then cap - 1 else v in
  s.counts.(i) <- s.counts.(i) + 1

(* Exact percentile: smallest value whose cumulative count reaches
   [ceil (p * count)]. *)
let percentile s p =
  if s.s_count = 0 then 0
  else begin
    let rank =
      let r = int_of_float (ceil (p *. float_of_int s.s_count)) in
      if r < 1 then 1 else r
    in
    let acc = ref 0 and ans = ref s.s_max in
    (try
       for v = 0 to cap - 1 do
         acc := !acc + s.counts.(v);
         if !acc >= rank then begin
           ans := v;
           raise Exit
         end
       done
     with Exit -> ());
    !ans
  end

let dist s : Dset_intf.dist =
  if s.s_count = 0 then
    {
      Dset_intf.d_count = 0;
      d_min = 0;
      d_max = 0;
      d_mean = 0.;
      d_p50 = 0;
      d_p90 = 0;
      d_p99 = 0;
    }
  else
    {
      Dset_intf.d_count = s.s_count;
      d_min = s.s_min;
      d_max = s.s_max;
      d_mean = float_of_int s.s_sum /. float_of_int s.s_count;
      d_p50 = percentile s 0.50;
      d_p90 = percentile s 0.90;
      d_p99 = percentile s 0.99;
    }

let hist s =
  let acc = ref [] in
  for v = cap - 1 downto 0 do
    if s.counts.(v) > 0 then acc := (v, s.counts.(v)) :: !acc
  done;
  !acc

(* ------------------------------------------------------------------ *)
(* The accumulator a census walker feeds. *)

type acc = {
  structure : string;
  mutable internals : int;
  mutable leaves : int;
  mutable sentinels : int;
  mutable keys : int;
  mutable max_depth : int;
  mutable est_words : int;
  leaf_depth : series;
  prefix_len : series;
  branching : series;
  keys_per_leaf : series;
}

let acc ~structure =
  {
    structure;
    internals = 0;
    leaves = 0;
    sentinels = 0;
    keys = 0;
    max_depth = 0;
    est_words = 0;
    leaf_depth = series ();
    prefix_len = series ();
    branching = series ();
    keys_per_leaf = series ();
  }

(** One internal node: [children] is its count of non-empty child
    pointers, [prefix_len] its label length in bits, [words] the
    documented layout estimate of its footprint. *)
let internal a ~depth ~prefix_len ~children ~words =
  a.internals <- a.internals + 1;
  if depth > a.max_depth then a.max_depth <- depth;
  observe a.prefix_len prefix_len;
  observe a.branching children;
  a.est_words <- a.est_words + words

(** One leaf: [keys] user keys stored in it (0 for a sentinel). *)
let leaf a ~depth ~keys ~sentinel ~words =
  a.leaves <- a.leaves + 1;
  if depth > a.max_depth then a.max_depth <- depth;
  if sentinel then a.sentinels <- a.sentinels + 1
  else begin
    a.keys <- a.keys + keys;
    observe a.keys_per_leaf keys;
    (* one depth observation per key, so the leaf-depth distribution
       weights a packed multi-key leaf by the searches that end there *)
    for _ = 1 to keys do
      observe a.leaf_depth depth
    done
  end;
  a.est_words <- a.est_words + words

(** Words held by the structure outside its nodes, such as an index
    into them; estimated like a node's. *)
let extra_words a words = a.est_words <- a.est_words + words

let word_bytes = Sys.word_size / 8

let finish ?(measured_words = 0) a : Dset_intf.census =
  let words = if measured_words > 0 then measured_words else a.est_words in
  let bytes_per_key =
    if a.keys = 0 then 0.
    else float_of_int (words * word_bytes) /. float_of_int a.keys
  in
  {
    Dset_intf.structure = a.structure;
    internals = a.internals;
    leaves = a.leaves;
    sentinels = a.sentinels;
    keys = a.keys;
    max_depth = a.max_depth;
    leaf_depth = dist a.leaf_depth;
    leaf_depth_hist = hist a.leaf_depth;
    prefix_len = dist a.prefix_len;
    prefix_len_hist = hist a.prefix_len;
    branching = dist a.branching;
    keys_per_leaf = dist a.keys_per_leaf;
    est_words = a.est_words;
    measured_words;
    bytes_per_key;
  }

(* ------------------------------------------------------------------ *)
(* Renderings *)

let dist_to_json (d : Dset_intf.dist) =
  Json.Obj
    [
      ("count", Json.Int d.Dset_intf.d_count);
      ("min", Json.Int d.d_min);
      ("max", Json.Int d.d_max);
      ("mean", Json.Float d.d_mean);
      ("p50", Json.Int d.d_p50);
      ("p90", Json.Int d.d_p90);
      ("p99", Json.Int d.d_p99);
    ]

let hist_to_json h =
  Json.Arr (List.map (fun (v, n) -> Json.Arr [ Json.Int v; Json.Int n ]) h)

let to_json (c : Dset_intf.census) =
  Json.Obj
    [
      ("structure", Json.Str c.Dset_intf.structure);
      ("internals", Json.Int c.internals);
      ("leaves", Json.Int c.leaves);
      ("sentinels", Json.Int c.sentinels);
      ("keys", Json.Int c.keys);
      ("max_depth", Json.Int c.max_depth);
      ("leaf_depth", dist_to_json c.leaf_depth);
      ("leaf_depth_hist", hist_to_json c.leaf_depth_hist);
      ("prefix_len", dist_to_json c.prefix_len);
      ("prefix_len_hist", hist_to_json c.prefix_len_hist);
      ("branching", dist_to_json c.branching);
      ("keys_per_leaf", dist_to_json c.keys_per_leaf);
      ("est_words", Json.Int c.est_words);
      ("measured_words", Json.Int c.measured_words);
      ("est_bytes", Json.Int (c.est_words * word_bytes));
      ("measured_bytes", Json.Int (c.measured_words * word_bytes));
      ("bytes_per_key", Json.Float c.bytes_per_key);
    ]

(** Append the [pat_shape_*] families for one census to an exposition.
    All samples carry a [structure] label so censuses of several
    structures coexist in one scrape. *)
let emit b (c : Dset_intf.census) =
  let s = [ ("structure", c.Dset_intf.structure) ] in
  let g name ?help v =
    Prometheus.gauge b ~name ?help ~labels:s (float_of_int v)
  in
  let kind k v =
    Prometheus.gauge b ~name:"pat_shape_nodes"
      ~help:"Census node counts, by kind"
      ~labels:(s @ [ ("kind", k) ])
      (float_of_int v)
  in
  kind "internal" c.internals;
  kind "leaf" (c.leaves - c.sentinels);
  kind "sentinel" c.sentinels;
  g "pat_shape_keys" ~help:"User keys found by the census walk" c.keys;
  g "pat_shape_max_depth" ~help:"Deepest leaf (pointer dereferences from root)"
    c.max_depth;
  let d name ?help (dd : Dset_intf.dist) =
    let stat k v =
      Prometheus.gauge b ~name ?help ~labels:(s @ [ ("stat", k) ]) v
    in
    stat "min" (float_of_int dd.Dset_intf.d_min);
    stat "mean" dd.d_mean;
    stat "p50" (float_of_int dd.d_p50);
    stat "p90" (float_of_int dd.d_p90);
    stat "p99" (float_of_int dd.d_p99);
    stat "max" (float_of_int dd.d_max)
  in
  d "pat_shape_leaf_depth" ~help:"Depth of user-key leaves" c.leaf_depth;
  d "pat_shape_prefix_len" ~help:"Internal-node label length, bits"
    c.prefix_len;
  d "pat_shape_branching" ~help:"Non-empty children per internal node"
    c.branching;
  d "pat_shape_keys_per_leaf" ~help:"User keys packed per leaf"
    c.keys_per_leaf;
  g "pat_shape_est_bytes" ~help:"Estimated structure footprint (layout accounting)"
    (c.est_words * word_bytes);
  g "pat_shape_measured_bytes"
    ~help:"Measured structure footprint (Obj.reachable_words; 0 = not measured)"
    (c.measured_words * word_bytes);
  Prometheus.gauge b ~name:"pat_shape_bytes_per_key"
    ~help:"Structure bytes per stored key (measured when available)" ~labels:s
    c.bytes_per_key
