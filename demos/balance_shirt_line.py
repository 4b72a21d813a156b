"""Balance the bundled 19-task shirt assembly line under a 32 seat budget.

Walks the greedy pass split by split, then prints the final allocation
table next to the optimal solver's answer.
"""
import hangerline as hl

tasks = hl.load_tasks(hl.fixture_path("shirt_main_assembly.csv"))
plan = hl.ProcessPlan(tasks=tasks, seat_budget=32)

print(f"{len(plan.tasks)} tasks, work content {hl.work_content(plan)} s, "
      f"budget {plan.seat_budget} seats")
print(f"single-station line CT: {hl.line_cycle_time(plan, hl.Allocation.ones(plan))} s/pc")
print(f"ideal lower bound at full budget: "
      f"{float(hl.parallel_lower_bound(plan, plan.seat_budget)):.2f} s/pc\n")

result = hl.greedy_balance(plan)
print("greedy split sequence (task gaining a station -> resulting line CT):")
for task_id, ct in result.iterations:
    print(f"  task {task_id:>2} -> {hl.format_seconds(ct)} s/pc")

print()
print(hl.emit_report(result, format="table"))

optimal = hl.optimal_balance(plan)
print(f"\noptimal solver agrees: line CT {optimal.line_cycle_time} s/pc "
      f"with {optimal.total_stations} seats")
