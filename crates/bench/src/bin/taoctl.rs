//! Inspect trained protocol assets.
//!
//! ```sh
//! cargo run --release -p bench --bin taoctl list
//! cargo run --release -p bench --bin taoctl show tao-2x
//! cargo run --release -p bench --bin taoctl probe tao-2x 20 20 20 1.0
//! ```

use protocols::MemoryPoint;

fn usage() -> ! {
    eprintln!(
        "usage: taoctl <list | show NAME | probe NAME rec slow send rttr>\n\
         assets dir: {}",
        remy::serialize::assets_dir().display()
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("list") => {
            let dir = remy::serialize::assets_dir();
            let mut names: Vec<String> = std::fs::read_dir(&dir)
                .map(|rd| {
                    rd.filter_map(|e| e.ok())
                        .filter_map(|e| {
                            let p = e.path();
                            (p.extension()? == "json")
                                .then(|| p.file_stem().unwrap().to_string_lossy().into_owned())
                        })
                        .collect()
                })
                .unwrap_or_default();
            names.sort();
            for n in &names {
                match remy::serialize::load(&remy::serialize::asset_path(n)) {
                    Ok(p) => println!(
                        "{:<24} {:>2} whiskers  score {:>8.3}",
                        p.name,
                        p.tree.num_leaves(),
                        p.score
                    ),
                    Err(e) => println!("{n:<24} (unreadable: {e})"),
                }
            }
            if names.is_empty() {
                println!(
                    "no assets in {} — run `learnability train all` first",
                    dir.display()
                );
            }
        }
        Some("show") => {
            let name = args.get(1).unwrap_or_else(|| usage());
            let p = remy::serialize::load(&remy::serialize::asset_path(name)).unwrap_or_else(|e| {
                eprintln!("cannot load {name}: {e}");
                std::process::exit(1);
            });
            println!("name:  {}", p.name);
            println!("score: {:.4}", p.score);
            println!("model: {}", p.description);
            println!("{}", p.tree);
        }
        Some("probe") => {
            if args.len() != 6 {
                usage();
            }
            let name = &args[1];
            let point: MemoryPoint = [
                args[2].parse().unwrap_or_else(|_| usage()),
                args[3].parse().unwrap_or_else(|_| usage()),
                args[4].parse().unwrap_or_else(|_| usage()),
                args[5].parse().unwrap_or_else(|_| usage()),
            ];
            let p = remy::serialize::load(&remy::serialize::asset_path(name)).unwrap_or_else(|e| {
                eprintln!("cannot load {name}: {e}");
                std::process::exit(1);
            });
            let a = p.tree.action_for(&point);
            println!(
                "memory (rec={}, slow={}, send={}, rttr={}) -> {a}",
                point[0], point[1], point[2], point[3]
            );
        }
        _ => usage(),
    }
}
