type link = { capacity : float; sharpness : float; scale : float }
type route = { links : int array; rtt : float }
type user = { routes : route array }
type t = { links : link array; users : user array }

let link ?(sharpness = 12.) ?(scale = 0.05) capacity =
  { capacity; sharpness; scale }

let route_count t =
  Array.fold_left (fun acc u -> acc + Array.length u.routes) 0 t.users

let validate t =
  let n = Array.length t.links in
  Array.iter
    (fun l ->
      if l.capacity <= 0. || l.sharpness <= 0. || l.scale <= 0. then
        invalid_arg "Network_model: non-positive link parameter")
    t.links;
  Array.iter
    (fun u ->
      if Array.length u.routes = 0 then
        invalid_arg "Network_model: user with no route";
      Array.iter
        (fun r ->
          if r.rtt <= 0. then invalid_arg "Network_model: non-positive rtt";
          Array.iter
            (fun l ->
              if l < 0 || l >= n then
                invalid_arg "Network_model: route references unknown link")
            r.links)
        u.routes)
    t.users

let link_loads t x =
  let loads = Array.make (Array.length t.links) 0. in
  Array.iteri
    (fun u user ->
      Array.iteri
        (fun r (route : route) ->
          Array.iter
            (fun l -> loads.(l) <- loads.(l) +. x.(u).(r))
            route.links)
        user.routes)
    t.users;
  loads

let link_loss l y =
  if y <= 0. then 0.
  else
    let p = l.scale *. ((y /. l.capacity) ** l.sharpness) in
    if p > 1. then 1. else p

let route_losses t link_p =
  Array.map
    (fun user ->
      Array.map
        (fun (route : route) ->
          let p =
            Array.fold_left (fun acc l -> acc +. link_p.(l)) 0. route.links
          in
          Stdlib.min p 1.)
        user.routes)
    t.users

(* ∫₀^y scale·(u/C)^B du = scale·y·(y/C)^B / (B+1); for loads beyond the
   point where p saturates at 1 we integrate the clamped curve exactly. *)
let link_cost l y =
  if y <= 0. then 0.
  else
    let y_sat = l.capacity *. ((1. /. l.scale) ** (1. /. l.sharpness)) in
    let smooth y = l.scale *. y *. ((y /. l.capacity) ** l.sharpness)
                   /. (l.sharpness +. 1.) in
    if y <= y_sat then smooth y else smooth y_sat +. (y -. y_sat)

let congestion_cost t x =
  let loads = link_loads t x in
  let acc = ref 0. in
  Array.iteri (fun i l -> acc := !acc +. link_cost l loads.(i)) t.links;
  !acc

let utility_v t x =
  let user_terms = ref 0. in
  Array.iteri
    (fun u user ->
      let rtt = user.routes.(0).rtt in
      let s = Array.fold_left ( +. ) 0. x.(u) in
      let term =
        if s <= 0. then neg_infinity else -1. /. (rtt *. rtt *. s)
      in
      user_terms := !user_terms +. term)
    t.users;
  !user_terms -. (0.5 *. congestion_cost t x)
